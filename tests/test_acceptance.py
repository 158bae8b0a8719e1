"""End-to-end acceptance suite: one test per criterion, with pinned tolerances.

Each test prints a single PASS/FAIL line with the measured values so the run
log doubles as a verification report.  The checks themselves live in
``msqaoa.verify`` and back the ``msqaoa verify`` CLI command.
"""

from msqaoa import verify


def _report(number, result):
    status = "PASS" if result.passed else "FAIL"
    print(f"[{status}] criterion {number}: {result.name} "
          f"({result.seconds:.2f}s) {result.details}")
    assert result.passed, f"criterion {number} failed: {result.details}"


def test_criterion_1_sk_optimum():
    res = verify.run_check("sk_optimum")
    assert res.seconds < 1.0
    _report(1, res)


def test_criterion_2_d3_optimum_and_stationarity():
    res = verify.run_check("d3_optimum")
    assert res.seconds < 1.0
    _report(2, res)


def test_criterion_3_approximation_factor():
    _report(3, verify.run_check("approximation_factor"))


def test_criterion_4_form_equivalence():
    res = verify.run_check("form_equivalence")
    assert res.seconds < 1.0
    _report(4, res)


def test_criterion_5_oracle_equivalence():
    res = verify.run_check("oracle_equivalence")
    assert res.seconds < 300.0
    _report(5, res)


def test_criterion_6_combinatorial_identities():
    res = verify.run_check("combinatorial_identities")
    assert res.seconds < 60.0
    _report(6, res)


def test_criterion_7_infinite_n_convergence():
    conv = verify.run_check("infinite_n_convergence")
    assert conv.seconds < 600.0
    _report(7, conv)


def test_criterion_8_concentration():
    _report(8, verify.run_check("concentration"))


def test_criterion_9_monte_carlo_consistency():
    res = verify.run_check("monte_carlo_consistency")
    assert res.seconds < 300.0
    _report(9, res)


def test_criterion_10_infinite_limit_and_concentration_rate():
    for name in ("infinite_limit", "concentration_rate"):
        res = verify.run_check(name)
        assert res.seconds < 60.0
        _report(10, res)
