"""Engine registry — sampler construction from a (name, options) spec.

The CLI, the serving layer, and the worker processes all need to build the
same sampler from a plain-data description (a job spec must survive a trip
through JSON and a process boundary). This registry is the single mapping
from engine names to sampler classes.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.inference.hmc import HMC
from repro.inference.metropolis import MetropolisHastings
from repro.inference.nuts import NUTS
from repro.inference.slice_sampler import SliceSampler

_ENGINES = {cls.engine: cls for cls in (NUTS, HMC, MetropolisHastings, SliceSampler)}

#: Default construction options per engine, matching the CLI's historical
#: choices (a depth-6 NUTS and a 16-step HMC sample BayesSuite briskly).
DEFAULT_ENGINE_OPTIONS: Dict[str, Dict[str, object]] = {
    "nuts": {"max_tree_depth": 6},
    "hmc": {"n_leapfrog": 16},
    "mh": {},
    "slice": {},
}


def engine_names() -> List[str]:
    return list(_ENGINES)


def build_engine(name: str, options: Optional[Dict[str, object]] = None):
    """Instantiate the sampler ``name`` with ``options`` over its defaults."""
    try:
        cls = _ENGINES[name]
    except KeyError:
        raise KeyError(
            f"unknown engine {name!r}; available: {', '.join(_ENGINES)}"
        ) from None
    merged = dict(DEFAULT_ENGINE_OPTIONS.get(name, {}))
    merged.update(options or {})
    return cls(**merged)
