"""Exception types raised across the package."""


class PedantsError(Exception):
    """Base class for all errors raised by this package."""


class EmptyReferences(PedantsError):
    """A judging operation received an empty reference-answer list."""


class EmptyCorpus(PedantsError):
    """Vectorizer fitting received an empty corpus."""


class EmptyRecords(PedantsError):
    """An aggregation received no records."""


class SingleClassCorpus(PedantsError):
    """Training data contains fewer than two distinct class labels."""


class DimensionMismatch(PedantsError):
    """An input vector's dimension does not match the model's."""


class MissingAnnotations(PedantsError):
    """Training examples lack required label/rule/type annotations.

    ``records`` holds the offending zero-based record indices.
    """

    def __init__(self, records: list[int]):
        self.records = records
        shown = ", ".join(str(i) for i in records[:10])
        more = "" if len(records) <= 10 else f" (+{len(records) - 10} more)"
        super().__init__(f"examples missing annotations at indices: {shown}{more}")


class TooFewModels(PedantsError):
    """Pairwise ranking needs at least two models."""


class OutOfRangeScore(PedantsError):
    """A Likert score fell outside the 1..5 scale."""


class DatasetError(PedantsError):
    """A dataset file failed to parse or validate.

    ``line_no`` is 1-based; None when the problem is not tied to a line.
    """

    def __init__(self, message: str, path: str | None = None, line_no: int | None = None):
        self.path = path
        self.line_no = line_no
        prefix = ""
        if path is not None:
            prefix = f"{path}: " if line_no is None else f"{path}:{line_no}: "
        super().__init__(f"{prefix}{message}")
