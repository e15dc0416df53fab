"""Inter-arrival time distributions for renewal-process request generators.

The Q-DPM paper drives all simulations with *synthetic input*.  The
standard synthetic families in the DPM literature are renewal processes
with exponential (memoryless — the base case of every stochastic DPM
model), Pareto (heavy-tailed idle periods, the empirical finding of Paleologo
et al.), hyper-exponential (bursty two-regime), uniform, deterministic,
and Weibull inter-arrival times.  All are provided here behind one small
abstract interface so trace generators and estimators can be written once.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import Dict, Sequence, Type

import numpy as np

from ..checks import check_positive


class InterArrival(ABC):
    """Distribution of the time between consecutive service requests."""

    #: registry name, set by subclasses
    kind: str = "abstract"

    @abstractmethod
    def sample(self, rng: np.random.Generator, size: int = 1) -> np.ndarray:
        """Draw ``size`` i.i.d. inter-arrival times (seconds, > 0)."""

    @abstractmethod
    def mean(self) -> float:
        """Expected inter-arrival time (may be ``inf`` for heavy tails)."""

    def rate(self) -> float:
        """Long-run arrival rate = 1 / mean (0 if the mean is infinite)."""
        m = self.mean()
        return 0.0 if math.isinf(m) else 1.0 / m

    @abstractmethod
    def params(self) -> dict:
        """Distribution parameters, for serialization and reporting."""

    def to_dict(self) -> dict:
        """Serialize as ``{"kind": ..., **params}``."""
        out = {"kind": self.kind}
        out.update(self.params())
        return out

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v!r}" for k, v in self.params().items())
        return f"{type(self).__name__}({inner})"


class Exponential(InterArrival):
    """Memoryless inter-arrivals: a Poisson request process of given rate."""

    kind = "exponential"

    def __init__(self, rate: float) -> None:
        check_positive("rate", rate)
        self._rate = rate

    def sample(self, rng: np.random.Generator, size: int = 1) -> np.ndarray:
        return rng.exponential(1.0 / self._rate, size=size)

    def mean(self) -> float:
        return 1.0 / self._rate

    def params(self) -> dict:
        return {"rate": self._rate}


class Deterministic(InterArrival):
    """Perfectly periodic requests (e.g. isochronous media traffic)."""

    kind = "deterministic"

    def __init__(self, period: float) -> None:
        check_positive("period", period)
        self._period = period

    def sample(self, rng: np.random.Generator, size: int = 1) -> np.ndarray:
        return np.full(size, self._period)

    def mean(self) -> float:
        return self._period

    def params(self) -> dict:
        return {"period": self._period}


class Uniform(InterArrival):
    """Inter-arrivals uniform on ``[low, high]``."""

    kind = "uniform"

    def __init__(self, low: float, high: float) -> None:
        check_positive("high", high)
        if not 0 <= low <= high:
            raise ValueError(f"need 0 <= low <= high, got [{low}, {high}]")
        self._low = low
        self._high = high

    def sample(self, rng: np.random.Generator, size: int = 1) -> np.ndarray:
        return rng.uniform(self._low, self._high, size=size)

    def mean(self) -> float:
        return 0.5 * (self._low + self._high)

    def params(self) -> dict:
        return {"low": self._low, "high": self._high}


class Pareto(InterArrival):
    """Heavy-tailed inter-arrivals (Lomax/Pareto-II with scale ``xm``).

    Density ``f(t) = alpha * xm^alpha / (t + xm)^(alpha+1)`` for t >= 0.
    ``alpha <= 1`` gives an infinite mean — accepted, but :meth:`rate`
    reports 0 and generators bound trace length by time, not count.
    """

    kind = "pareto"

    def __init__(self, alpha: float, xm: float) -> None:
        check_positive("alpha", alpha)
        check_positive("xm", xm)
        self._alpha = alpha
        self._xm = xm

    def sample(self, rng: np.random.Generator, size: int = 1) -> np.ndarray:
        # numpy's pareto draws (X - 1) for the Pareto-I with xm = 1.
        return self._xm * rng.pareto(self._alpha, size=size)

    def mean(self) -> float:
        if self._alpha <= 1:
            return math.inf
        return self._xm / (self._alpha - 1)

    def params(self) -> dict:
        return {"alpha": self._alpha, "xm": self._xm}


class HyperExponential(InterArrival):
    """Mixture of exponentials — the classic bursty/two-regime model.

    With probability ``probs[i]`` a draw comes from an exponential of
    ``rates[i]``.  Two well-separated rates model interactive workloads:
    short intra-burst gaps and long inter-burst silences.
    """

    kind = "hyperexponential"

    def __init__(self, rates: Sequence[float], probs: Sequence[float]) -> None:
        rates = list(rates)
        probs = list(probs)
        if len(rates) != len(probs) or not rates:
            raise ValueError("rates and probs must be equal-length, non-empty")
        for r in rates:
            check_positive("rates", r)
        if not all(p >= 0 for p in probs) or not abs(sum(probs) - 1.0) <= 1e-9:
            raise ValueError(f"probs must be >= 0 and sum to 1, got {probs}")
        self._rates = rates
        self._probs = probs

    def sample(self, rng: np.random.Generator, size: int = 1) -> np.ndarray:
        branch = rng.choice(len(self._rates), size=size, p=self._probs)
        scales = 1.0 / np.asarray(self._rates)
        return rng.exponential(scales[branch])

    def mean(self) -> float:
        return float(sum(p / r for p, r in zip(self._probs, self._rates)))

    def params(self) -> dict:
        return {"rates": list(self._rates), "probs": list(self._probs)}


class Weibull(InterArrival):
    """Weibull inter-arrivals; ``shape < 1`` gives bursty clustering."""

    kind = "weibull"

    def __init__(self, shape: float, scale: float) -> None:
        check_positive("shape", shape)
        check_positive("scale", scale)
        self._shape = shape
        self._scale = scale

    def sample(self, rng: np.random.Generator, size: int = 1) -> np.ndarray:
        return self._scale * rng.weibull(self._shape, size=size)

    def mean(self) -> float:
        return self._scale * math.gamma(1.0 + 1.0 / self._shape)

    def params(self) -> dict:
        return {"shape": self._shape, "scale": self._scale}


#: Registry of distribution classes by ``kind``.
DISTRIBUTIONS: Dict[str, Type[InterArrival]] = {
    cls.kind: cls
    for cls in (Exponential, Deterministic, Uniform, Pareto, HyperExponential, Weibull)
}


def from_dict(data: dict) -> InterArrival:
    """Instantiate a distribution from its :meth:`InterArrival.to_dict` form."""
    data = dict(data)
    kind = data.pop("kind")
    try:
        cls = DISTRIBUTIONS[kind]
    except KeyError:
        raise KeyError(
            f"unknown inter-arrival kind {kind!r}; known: {sorted(DISTRIBUTIONS)}"
        )
    return cls(**data)
