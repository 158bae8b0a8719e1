import functools
import json

import pytest

from msqaoa import cli


@pytest.fixture(scope="session", autouse=True)
def every_json_document_is_json_dumps():
    """Every document the package formats while the suite runs (manifests,
    fitted specs, verify reports) must come out as ``json.dumps(doc,
    indent=2)`` would write it."""
    real = cli._json_text

    @functools.wraps(real)
    def checked(value, indent="\n"):
        text = real(value, indent)
        if indent == "\n":  # a whole document, not a nested value
            assert text == json.dumps(value, indent=2)
        return text

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "_json_text", checked)
        yield
