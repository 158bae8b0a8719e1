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


@pytest.fixture(scope="session", autouse=True)
def every_grid_text_is_repr():
    """Every block of grid text the package formats while the suite runs
    must come out as one repr per value, joined per row, would write it."""
    real = cli._repr_rows

    @functools.wraps(real)
    def checked(values):
        text = real(values)
        assert text == "".join(",".join(map(repr, row)) + "\n" for row in values.tolist())
        return text

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "_repr_rows", checked)
        yield
