"""The package's exceptions survive a pickle round trip, so they can cross processes."""
import inspect
import pickle

import pytest

from dispersion import errors

EXCEPTIONS = [
    cls
    for _, cls in inspect.getmembers(errors, inspect.isclass)
    if issubclass(cls, BaseException) and cls.__module__ == errors.__name__
]


def test_every_exception_of_the_package_is_listed():
    assert {cls.__name__ for cls in EXCEPTIONS} == {
        "BudgetExceededError", "DispersionError", "DomainError", "InvalidMoveError",
        "InvariantViolationError", "MalformedStateError", "TheoremViolationError",
    }


@pytest.mark.parametrize("cls", EXCEPTIONS, ids=lambda cls: cls.__name__)
def test_exceptions_keep_their_message_through_pickle(cls):
    e = cls(1000) if cls is errors.BudgetExceededError else cls("something broke")
    back = pickle.loads(pickle.dumps(e))
    assert type(back) is cls
    assert str(back) == str(e)
    assert back.args == e.args
    assert vars(back) == vars(e)


def test_a_budget_error_keeps_its_budget_and_message_through_pickle():
    default = pickle.loads(pickle.dumps(errors.BudgetExceededError(1000)))
    assert str(default) == "node budget of 1000 exceeded"
    assert default.budget == 1000
    custom = errors.BudgetExceededError(10, "tree enumeration is capped")
    custom = pickle.loads(pickle.dumps(custom))
    assert str(custom) == "tree enumeration is capped"
    assert custom.budget == 10
