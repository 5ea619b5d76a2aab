import pickle

import pytest

from tightpoly import errors
from tightpoly.errors import TightpolyError

# One instance of every error, built with its own constructor arguments.
SAMPLES = {
    errors.AdjacentOddPair: errors.AdjacentOddPair(1),
    errors.NotAdmissible: errors.NotAdmissible("3 is odd next to 5", 0, 1),
    errors.BudgetExceeded: errors.BudgetExceeded(5),
    errors.CapExceeded: errors.CapExceeded(7),
    errors.RelatorViolation: errors.RelatorViolation("relator 2 fails at coset 3"),
    errors.DiamondViolation: errors.DiamondViolation("flag 4 has 3 1-adjacent flags"),
    errors.InvariantViolation: errors.InvariantViolation("partition sizes differ"),
    errors.RouteDisagreement: errors.RouteDisagreement("routes disagree on {3,6}"),
    errors.PreconditionViolated: errors.PreconditionViolated("needs the polytope axioms"),
    errors.PresentationParseError: errors.PresentationParseError(3, "bad generator"),
    errors.WorkerDied: errors.WorkerDied("one of 2 worker processes ended abruptly, so the batch has no results"),
}


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_error_has_a_sample():
    assert set(_subclasses(TightpolyError)) == set(SAMPLES)


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
@pytest.mark.parametrize("cls", list(SAMPLES), ids=lambda cls: cls.__name__)
def test_pickle_round_trip(cls, protocol):
    exc = SAMPLES[cls]
    back = pickle.loads(pickle.dumps(exc, protocol))
    assert type(back) is cls
    assert str(back) == str(exc)
    assert back.args == exc.args
    assert vars(back) == vars(exc)


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_cap_exceeded_with_message_round_trip(protocol):
    exc = errors.CapExceeded(128, "index 140 is above the index cap of 128")
    back = pickle.loads(pickle.dumps(exc, protocol))
    assert str(back) == "index 140 is above the index cap of 128"
    assert back.cap == 128
    assert back.args == exc.args


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_budget_exceeded_with_progress_round_trip(protocol):
    exc = errors.BudgetExceeded(30, allocated=30, live=28, coset=2)
    back = pickle.loads(pickle.dumps(exc, protocol))
    assert str(back) == "coset enumeration exceeded budget of 30 cosets (30 allocated, 28 live, at coset 2)"
    assert (back.budget, back.allocated, back.live, back.coset) == (30, 30, 28, 2)
    assert back.args == exc.args
    assert str(errors.BudgetExceeded(30)) == "coset enumeration exceeded budget of 30 cosets"


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_budget_exceeded_with_order_round_trip(protocol):
    exc = errors.BudgetExceeded(60, order=64)
    back = pickle.loads(pickle.dumps(exc, protocol))
    assert str(back) == "coset enumeration exceeded budget of 60 cosets (the group has order 64)"
    assert (back.budget, back.allocated, back.order) == (60, None, 64)
    assert back.args == exc.args
