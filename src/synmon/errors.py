"""Exception hierarchy shared by all synmon modules."""


class SynmonError(Exception):
    """Base class for all errors raised by this package."""


class InvalidArgument(SynmonError, ValueError):
    """An argument, such as a length or a count, is out of range."""


class VerificationFailure(SynmonError):
    """A check of a constructed object failed: a table, a homomorphism, a
    period or a verdict against its exact limit.  This would falsify an
    invariant the code relies on; the message starts with the stage that
    failed and names the witness."""


# --- regex / DFA ingestion ---

class RegexSyntaxError(SynmonError):
    """Malformed regular expression; carries the byte offset of the fault."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} at offset {offset}")
        self.offset = offset


class FormatError(SynmonError):
    """A malformed automaton: the DFA document does not match the expected
    JSON schema, or the automaton it declares is not a complete DFA (a
    missing transition, or an undeclared state as a target, the initial
    state or an accepting state)."""


# --- monoid core ---

class InvalidMonoid(VerificationFailure):
    """Multiplication table violates the monoid laws: a verification failure
    for a table the pipeline builds, and a rejection for one handed in."""


class TooLarge(SynmonError):
    """A requested object exceeds its budget."""


class NotAnIdeal(SynmonError):
    """Candidate subset is not a two-sided ideal."""


class NotAnAction(SynmonError):
    """Supplied table is not a unitary left monoid action by endomorphisms:
    the action laws fail, or an element does not distribute over the
    acted-on monoid's operation."""


# --- period analysis ---

class UnknownSymbol(SynmonError):
    """A symbol outside the alphabet: a letter of a word, a gamma or a
    regex, or a block that is not a word of the period's length over the
    alphabet."""


class InvalidPeriod(SynmonError):
    """Supplied period does not divide the maximum period, so the residual
    classes would clash."""


# --- decomposition ---

class ScopeError(SynmonError):
    """Operation requires a decomposition over the full alphabet with a
    single period."""
