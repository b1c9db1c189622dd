"""Every exact derivative the suite checks can fail, and the suite passes
for every seed.

Each mutant is a monkeypatch of one formula that names the checkers it must
fail; the test runs the default ``run_suite`` on it in process.  The exact
headlines are read from the formulas they check, so a fault shared by a
formula and its exact derivative can pass the headline; the order
sub-checks, which difference the formula itself, catch those: their factor
reads 1, the mark of an error that does not shrink with the step.
"""

import numpy as np
import pytest

from acsgeom import verify
from acsgeom.geometry import ChartField
from acsgeom.verify import VerifyConfig, run_suite

original_geodesic_chart = verify.geodesic_chart


def _commutator_resolvent_derivative(self, a):
    """S (A K - K A) S in place of S (A K + K A) S."""
    s, k = self.resolvents(), self.K.ops
    return s @ (a.ops @ k - k @ a.ops) @ s


def _frozen_resolvent_derivative(self, a):
    """S A S: the derivative of (1 - K)^{-1}, not of (1 - K^2)^{-1}."""
    s = self.resolvents()
    return s @ a.ops @ s


def _squared_omega_derivative(c, a, x, y, by_case):
    """The exact derivative of 4 sum of w tr(S X S^2 Y), whose 2-form
    4 tr(S A J0 S^2 B) is not closed at dims 4 and 6."""
    s, ds = c.resolvents(), c.resolvent_derivative(a)
    traces = np.trace(ds @ x @ s @ s @ y + s @ x @ (ds @ s + s @ ds) @ y, axis1=1, axis2=2)
    return by_case.sums(c.space.weights * 4.0 * traces)


# (object, attribute, mutant, checkers it must fail)
MUTANTS = {
    "resolvent_derivative_commutator": (ChartField, "resolvent_derivative",
                                        _commutator_resolvent_derivative,
                                        {"metric_structure", "curvature_fd", "theorem2"}),
    "resolvent_derivative_sas": (ChartField, "resolvent_derivative",
                                 _frozen_resolvent_derivative,
                                 {"metric_structure", "curvature_fd", "theorem2"}),
    "geodesic_chart_doubled_time": (verify, "geodesic_chart",
                                    lambda a, t: original_geodesic_chart(a, 2.0 * t),
                                    {"geodesics"}),
    "omega_not_closed": (verify, "_pairing_derivative", _squared_omega_derivative,
                         {"metric_structure", "theorem2"}),
}


def _details(reports):
    return {(r.name, s["name"]): s for r in reports for s in r.details}


@pytest.mark.parametrize("mutant", sorted(MUTANTS))
def test_mutant_fails_its_checkers(mutant, monkeypatch):
    owner, name, replacement, checkers = MUTANTS[mutant]
    monkeypatch.setattr(owner, name, replacement)
    reports = run_suite(VerifyConfig())
    assert {r.name for r in reports if not r.passed} == checkers


@pytest.mark.parametrize("mutant", ["resolvent_derivative_commutator",
                                    "resolvent_derivative_sas"])
def test_wrong_resolvent_derivative_fails_metric_compat_and_its_order(mutant, monkeypatch):
    owner, name, replacement, _ = MUTANTS[mutant]
    monkeypatch.setattr(owner, name, replacement)
    subs = _details(run_suite(VerifyConfig(), checks=("metric_structure",)))
    for dim in (2, 4):
        assert subs["metric_structure", f"metric_compat_dim{dim}"]["residual"] > 1.0
        assert subs["metric_structure", f"metric_compat_order_dim{dim}"]["factor"] \
            == pytest.approx(1.0, abs=1e-2)


def test_doubled_geodesic_time_passes_the_ode_and_fails_its_order(monkeypatch):
    # tanh(t A) is the geodesic of velocity 2 A: the exact residual, read
    # from the same curve, is blind to the fault
    owner, name, replacement, _ = MUTANTS["geodesic_chart_doubled_time"]
    monkeypatch.setattr(owner, name, replacement)
    subs = _details(run_suite(VerifyConfig(), checks=("geodesics",)))
    for dim in (2, 4):
        assert subs["geodesics", f"ode_residual_dim{dim}"]["passed"]
        order = subs["geodesics", f"ode_order_dim{dim}"]
        assert not order["passed"] and order["factor"] == pytest.approx(1.0, abs=1e-3)


def test_a_form_that_is_not_closed_fails_off_the_center_only(monkeypatch):
    owner, name, replacement, _ = MUTANTS["omega_not_closed"]
    monkeypatch.setattr(owner, name, replacement)
    subs = _details(run_suite(VerifyConfig(fd_dims=(2, 4, 6)), checks=("theorem2",)))
    # every 3-form vanishes pointwise at dim 2; at the center S' is 0
    assert subs["theorem2", "closed_offcentre_dim2"]["passed"]
    for dim in (4, 6):
        assert subs["theorem2", f"closed_offcentre_dim{dim}"]["residual"] > 0.1
        assert subs["theorem2", f"terms_dim{dim}"]["residual"] == 0.0


def test_seeds_0_to_19_pass():
    for seed in range(20):
        failed = [r.name for r in run_suite(VerifyConfig(seed=seed)) if not r.passed]
        assert failed == [], seed
