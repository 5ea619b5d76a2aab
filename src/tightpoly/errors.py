"""Exception hierarchy.

Resource exhaustion (BudgetExceeded, CapExceeded) is always distinct from
mathematical failure: a verdict object records failed claims, an exception
means the computation could not be carried out at all.
"""

import copyreg


class TightpolyError(Exception):
    def __reduce__(self):
        # Pickle (as between atlas worker processes) rebuilds the error from
        # `args` and its attributes without calling __init__: subclasses take
        # other constructor arguments than the message that `args` holds, so
        # the default `cls(*args)` would garble the text or raise TypeError.
        return copyreg.__newobj__, (type(self), *self.args), self.__dict__


class AdjacentOddPair(TightpolyError):
    """Two adjacent odd entries: no extra-relator case applies."""

    def __init__(self, index: int):
        self.index = index
        super().__init__(f"entries {index + 1} and {index + 2} are both odd")


class NotAdmissible(TightpolyError):
    """Tuple fails the odd-entry neighbor condition."""

    def __init__(self, message: str, odd_index: int, violating_index: int):
        self.odd_index = odd_index
        self.violating_index = violating_index
        super().__init__(message)


class BudgetExceeded(TightpolyError):
    """Coset enumeration did not close within the coset budget. When the
    enumerator says how far it got, the message also gives the cosets
    allocated and live and the coset it was processing. A group whose order
    is known to be above the budget before any enumeration (a direct
    product of blocks) gives that `order` instead."""

    def __init__(
        self,
        budget: int,
        *,
        allocated: int | None = None,
        live: int | None = None,
        coset: int | None = None,
        order: int | None = None,
    ):
        self.budget = budget
        self.allocated = allocated
        self.live = live
        self.coset = coset
        self.order = order
        message = f"coset enumeration exceeded budget of {budget} cosets"
        if allocated is not None:
            message += f" ({allocated} allocated, {live} live, at coset {coset})"
        if order is not None:
            message += f" (the group has order {order})"
        super().__init__(message)


class CapExceeded(TightpolyError):
    """Element enumeration grew past the configured cap, or a search was
    asked for more than its cap allows; `message` says which."""

    def __init__(self, cap: int, message: str | None = None):
        self.cap = cap
        super().__init__(message or f"element enumeration exceeded cap of {cap}")


class RelatorViolation(TightpolyError):
    """A closed table fails a relator check; internal consistency bug."""


class DiamondViolation(TightpolyError):
    """Flag adjacency is not unique; the poset is not a polytope. Raised for
    a poset that passed the axioms, it is an internal bug."""


class InvariantViolation(TightpolyError):
    """A structural invariant that holds by construction failed; internal bug."""


class RouteDisagreement(TightpolyError):
    """The two independent tightness routes disagree; internal bug."""


class WorkerDied(TightpolyError):
    """A worker process of a batch ended abruptly (killed, out of memory,
    `os._exit`) or sent back results that cannot be read, so the batch has
    no results; internal error."""


class PreconditionViolated(TightpolyError):
    """Arguments outside the stated domain of a construction."""


class PresentationParseError(TightpolyError):
    def __init__(self, line_no: int, message: str):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {message}")
