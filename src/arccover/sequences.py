"""Arc-length sequences l_1 >= l_2 >= ... in (0, 1) and their epsilon windows.

Every computation in the package is parameterized by a nonincreasing
sequence of arc lengths inside the open unit interval.  The parametric
families produce ``min(cap, raw(k))`` where ``raw`` is one of ``c``,
``c/k``, ``c/sqrt(k)`` or ``c*k**(-alpha)``.  The cap keeps the small-k
terms inside (0, 1) while changing only finitely many of them, so it
affects neither the divergence of ``sum(l_k**2)`` nor the covering
criterion series.

"Decreasing" is implemented as nonincreasing: ties are legal (constant
sequences are useful test inputs) and nothing downstream needs
strictness.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

FAMILIES = ("constant", "harmonic", "inverse_sqrt", "power_decay", "explicit")


def _normalize_family(name: str) -> str:
    return name.strip().lower().replace("-", "_").replace("explicit_list", "explicit")


def as_lengths(lengths) -> np.ndarray:
    """``lengths`` as a float64 array, checked to be 1-d, inside (0, 1) and nonincreasing."""
    arr = np.asarray(lengths, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError("lengths must be a one-dimensional sequence")
    if arr.size:
        if not (np.all(arr > 0.0) and np.all(arr < 1.0)):
            raise ValueError("all lengths must lie strictly inside (0, 1)")
        if np.any(arr[1:] > arr[:-1]):
            raise ValueError("lengths must be nonincreasing")
    return arr


@dataclass(frozen=True)
class LengthSequence:
    """Deterministic generator of nonincreasing arc lengths in (0, 1).

    Parameters
    ----------
    family:
        One of ``constant``, ``harmonic`` (c/k), ``inverse_sqrt``
        (c/sqrt(k)), ``power_decay`` (c*k**(-alpha)) or ``explicit``.
        Hyphenated spellings (``inverse-sqrt``) are accepted.
    c:
        Positive scale of the parametric families.
    alpha:
        Nonnegative decay exponent (power_decay only).
    cap:
        Upper clamp in (0, 1) applied as ``l_k = min(cap, raw(k))``.
    values:
        The full list of lengths (explicit family only).
    """

    family: str
    c: float = 1.0
    alpha: float = 0.0
    cap: float = 0.99
    values: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "family", _normalize_family(self.family))
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; expected one of {FAMILIES}")
        if self.family == "explicit":
            if not self.values:
                raise ValueError("explicit family requires a nonempty values list")
            object.__setattr__(self, "values", tuple(as_lengths(self.values).tolist()))
            return
        if not self.c > 0.0:
            raise ValueError(f"scale c must be positive, got {self.c}")
        if not 0.0 < self.cap < 1.0:
            raise ValueError(f"cap must lie in (0, 1), got {self.cap}")
        if not self.alpha >= 0.0:
            raise ValueError(f"alpha must be nonnegative, got {self.alpha}")

    # Convenience constructors -------------------------------------------------

    @classmethod
    def constant(cls, c: float, cap: float = 0.99) -> "LengthSequence":
        return cls("constant", c=c, cap=cap)

    @classmethod
    def harmonic(cls, c: float = 1.0, cap: float = 0.99) -> "LengthSequence":
        return cls("harmonic", c=c, cap=cap)

    @classmethod
    def inverse_sqrt(cls, c: float = 1.0, cap: float = 0.99) -> "LengthSequence":
        return cls("inverse_sqrt", c=c, cap=cap)

    @classmethod
    def power_decay(cls, c: float, alpha: float, cap: float = 0.99) -> "LengthSequence":
        return cls("power_decay", c=c, alpha=alpha, cap=cap)

    @classmethod
    def explicit(cls, values) -> "LengthSequence":
        return cls("explicit", values=tuple(values))


@dataclass(frozen=True)
class EpsilonWindow:
    """An admissible integration window (0, eps) with eps < 1 - l_1.

    ``bound_path_ok`` records whether eps < 1/2, the extra restriction
    required by the lower-bound chain (the quadratic growth coefficient
    must be positive there).
    """

    eps: float
    upper: float
    bound_path_ok: bool


def generate(seq: LengthSequence, n: int, start: int = 0) -> np.ndarray:
    """Arc lengths ``start + 1`` to ``n`` of ``seq`` (the first ``n`` by default) as a float64 array.

    Pure and deterministic: calling twice yields identical arrays, and
    each term has the same bits whatever ``start`` is.  The explicit
    family returns a copy and raises if fewer than ``n`` values were
    supplied.  Raises if a term underflows to 0.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not 0 <= start < n:
        raise ValueError(f"start must lie in [0, n), got {start}")
    if seq.family == "explicit":
        assert seq.values is not None
        if len(seq.values) < n:
            raise ValueError(f"explicit list has {len(seq.values)} values but n={n} were requested")
        return np.array(seq.values[start:n], dtype=np.float64)
    # In place: at n = 10**6 each full-length temporary is 8 MB.
    if seq.family == "constant":
        lengths = np.full(n - start, float(seq.c))
    elif seq.family == "power_decay":
        lengths = np.arange(start + 1, n + 1, dtype=np.float64) ** (-seq.alpha)
        lengths *= seq.c
    else:  # c / k or c / sqrt(k)
        lengths = np.arange(start + 1, n + 1, dtype=np.float64)
        if seq.family == "inverse_sqrt":
            np.sqrt(lengths, out=lengths)
        np.divide(seq.c, lengths, out=lengths)
    np.minimum(lengths, float(seq.cap), out=lengths)
    if not lengths[-1] > 0.0:  # the smallest term
        raise ValueError(f"term {n} of {seq.family} is {lengths[-1]}; lengths must be positive")
    return lengths


def blocks(source, stops, size: int):
    """The lengths 1 to ``stops[-1]`` of ``source`` in consecutive arrays of at most ``size``, cut at every stop.

    ``source`` is a LengthSequence, generated a block at a time, or an
    array of lengths, sliced; ``stops`` ascend.  Yields (end, block),
    the block holding lengths ``end - len(block) + 1`` to ``end``, so
    that a series carried from block to block can be read at each stop
    without ever holding all of its terms.
    """
    start = 0
    for stop in stops:
        for first in range(start, stop, size):
            end = min(first + size, stop)
            if isinstance(source, LengthSequence):
                yield end, generate(source, end, start=first)
            else:
                yield end, source[first:end]
        start = stop


def check_window(lengths: np.ndarray, eps: float) -> float:
    """``eps`` as a float, checked to satisfy 0 < eps < 1 - l_1 for nonincreasing ``lengths``."""
    eps = float(eps)
    upper = 1.0 - float(lengths[0]) if lengths.size else 1.0
    if not 0.0 < eps < upper:
        raise ValueError(f"eps must satisfy 0 < eps < 1 - l1 = {upper}; got {eps}")
    return eps


def epsilon_window(seq: LengthSequence, eps: float) -> EpsilonWindow:
    """Validate 0 < eps < 1 - l_1 and classify the bound path."""
    head = generate(seq, 1)
    eps = check_window(head, eps)
    return EpsilonWindow(eps=eps, upper=1.0 - float(head[0]), bound_path_ok=eps < 0.5)


def threshold_index(seq: LengthSequence, eps: float, n: int) -> int:
    """Smallest m such that l_k < eps for every k in (m, n].

    By monotonicity this is the count of leading terms with l_k >= eps;
    it is 0 exactly when l_1 < eps.
    """
    epsilon_window(seq, eps)
    lengths = generate(seq, n)
    return int(np.count_nonzero(lengths >= eps))


def parse_sequence_spec(spec: str) -> LengthSequence:
    """Parse a sequence specification string ``family:param=value,...``.

    Examples: ``harmonic:c=1,cap=0.99``, ``constant:c=0.3``,
    ``power-decay:c=1,alpha=0.75,cap=0.49``, ``explicit:file=ls.txt``.
    The explicit file holds one decimal per line; commas are also
    accepted as separators.
    """
    spec = spec.strip()
    if not spec:
        raise ValueError("empty sequence specification")
    family, _, rest = spec.partition(":")
    family = _normalize_family(family)
    params: dict[str, str] = {}
    if rest:
        for item in rest.split(","):
            key, sep, value = item.partition("=")
            key = key.strip()
            if not sep or not key:
                raise ValueError(f"malformed sequence parameter {item!r}; expected key=value")
            if key in params:
                raise ValueError(f"duplicate sequence parameter {key!r}")
            params[key] = value.strip()

    if family == "explicit":
        path = params.pop("file", None)
        if path is None:
            raise ValueError("explicit family requires file=PATH")
        if params:
            raise ValueError(f"unknown parameters for explicit family: {sorted(params)}")
        with open(path, "r", encoding="utf-8") as fh:
            tokens = fh.read().replace(",", " ").split()
        if not tokens:
            raise ValueError(f"sequence file {path!r} contains no values")
        return LengthSequence.explicit(float(tok) for tok in tokens)

    kwargs: dict[str, float] = {}
    for key, value in params.items():
        if key not in ("c", "alpha", "cap"):
            raise ValueError(f"unknown sequence parameter {key!r}")
        try:
            kwargs[key] = float(value)
        except ValueError:
            raise ValueError(f"sequence parameter {key}={value!r} is not a number") from None
    if "alpha" in kwargs and family != "power_decay":
        raise ValueError(f"alpha applies to the power-decay family only, not {family!r}")
    return LengthSequence(family, **kwargs)
