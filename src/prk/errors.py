"""Exception hierarchy shared by the workbench modules."""


class PrkError(Exception):
    """Base class for all workbench errors."""


class ParseError(PrkError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


class TypingError(PrkError):
    """Base class for type-checking failures."""


class UnboundVariableError(TypingError):
    pass


class ModeMismatchError(TypingError):
    pass


class SignMismatchError(TypingError):
    pass


class NotStrongError(TypingError):
    pass


class AnnotationMismatchError(TypingError):
    pass


class TypeMismatchError(TypingError):
    pass


class CannotInferError(TypingError):
    pass


class DuplicateAssumptionError(TypingError):
    pass


class TypesNotOppositeError(TypingError):
    pass


class NotClassicalError(TypingError):
    pass


class NoSuchAssumptionError(PrkError):
    pass


class FuelExhaustedError(PrkError):
    pass


class DerivationMismatchError(PrkError):
    pass


class InvalidDerivationError(PrkError):
    pass


class UnknownVariableError(PrkError):
    pass


class UnknownWorldError(PrkError):
    pass


class InvalidModelError(PrkError):
    pass


class InvalidNKProofError(PrkError):
    pass


class WrongModeError(PrkError):
    pass
