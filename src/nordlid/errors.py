"""Exception types shared across the toolkit."""


class NordlidError(Exception):
    """Base class for all toolkit errors."""


class InsufficientData(NordlidError):
    def __init__(self, label: str, available: int, requested: int):
        super().__init__(
            f"label {label!r} has {available} sentences, {requested} requested"
        )
        self.label = label
        self.available = available
        self.requested = requested


class InvalidRatio(NordlidError):
    def __init__(self, ratio: float):
        super().__init__(f"split ratio must lie strictly between 0 and 1, got {ratio}")
        self.ratio = ratio


class MissingLabelFile(NordlidError):
    def __init__(self, code: str):
        super().__init__(f"missing input file for label {code!r}")
        self.code = code


class InvalidUtf8(NordlidError):
    def __init__(self, path: str, offset: int):
        super().__init__(f"{path}: invalid UTF-8 at byte offset {offset}")
        self.path = path
        self.offset = offset


class MalformedRow(NordlidError):
    def __init__(self, line_number: int, reason: str = "expected exactly one tab"):
        super().__init__(f"line {line_number}: {reason}")
        self.line_number = line_number


class DimensionMismatch(NordlidError):
    def __init__(self, expected: int, got: int):
        super().__init__(f"expected dimension {expected}, got {got}")
        self.expected = expected
        self.got = got


class NegativeCount(NordlidError):
    pass


class EmptyVocabulary(NordlidError):
    pass


class SequenceTooShort(NordlidError):
    pass


class TooFewPoints(NordlidError):
    pass


class ConvergenceFailure(NordlidError):
    def __init__(self, component: int, residual: float):
        super().__init__(
            f"eigencomponent {component} did not converge (residual {residual:g})"
        )
        self.component = component
        self.residual = residual


class PerplexityInfeasible(NordlidError):
    pass


class PredictionError(NordlidError):
    def __init__(self, index: int):
        super().__init__(f"prediction failed at sentence index {index}")
        self.index = index


class ModelFormatError(NordlidError):
    pass


class IncompatibleSpec(NordlidError):
    """Feature spec and model spec cannot be combined."""
