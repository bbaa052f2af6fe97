"""Exception types shared across the package."""
from functools import partial


class ParameterError(ValueError):
    """An operation received arguments outside its documented domain."""


class ViolationError(RuntimeError):
    """An exact mathematical check failed on a concrete weight.

    This should never happen for correct inputs; if it does, it points at an
    implementation bug or a genuine counterexample, so the exception carries
    everything needed to reproduce: the serialized weight, the name of the
    failing check and the offending quantity.

    It pickles with the three fields, so one raised in a campaign's pool
    worker reaches the parent whole; the default pickle would call the
    constructor with the message alone, which it refuses.
    """

    def __init__(self, message: str, *, weight_text: str, check: str, detail: str = ""):
        super().__init__(message)
        self.weight_text = weight_text
        self.check = check
        self.detail = detail

    def __reduce__(self):
        fields = {"weight_text": self.weight_text, "check": self.check, "detail": self.detail}
        return partial(type(self), **fields), (str(self),)
