"""Exception hierarchy shared by all synmon modules."""


class SynmonError(Exception):
    """Base class for all errors raised by this package."""


class InvalidArgument(SynmonError, ValueError):
    """A command-line argument, such as a length, is out of range."""


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


class AlphabetMismatch(SynmonError):
    """Regex uses a symbol outside the declared alphabet."""


class FormatError(SynmonError):
    """DFA document does not match the expected JSON schema."""


class PartialTransitionFunction(SynmonError):
    """A (state, symbol) pair has no transition."""


class UnknownState(SynmonError):
    """A transition, the initial state, or an accepting state references
    an undeclared state."""


# --- monoid core ---

class InvalidMonoid(VerificationFailure):
    """Multiplication table violates the monoid laws: a verification failure
    for a table the pipeline builds, and a rejection for one handed in."""


class TooLarge(SynmonError):
    """A requested object exceeds its budget."""


class NotAnIdeal(SynmonError):
    """Candidate subset is not a two-sided ideal."""


class NotAnAction(SynmonError):
    """Supplied table is not a (unitary) left monoid action."""


class NotDistributive(SynmonError):
    """Action does not distribute over the acted-on monoid's operation."""


# --- period analysis ---

class UnknownSymbol(SynmonError):
    """Word contains a letter outside the alphabet."""


class InvalidPeriod(SynmonError):
    """Supplied period does not divide the maximum period, so the residual
    classes would clash."""


# --- decomposition ---

class ScopeError(SynmonError):
    """Operation requires a decomposition over the full alphabet with a
    single period."""


class BlockLengthError(SynmonError):
    """A block word contains a block whose length differs from the period."""
