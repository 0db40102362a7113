"""Name-based policy lookup used by the selection pipeline."""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.policies.base import DeletionPolicy
from repro.policies.default_policy import DefaultPolicy
from repro.policies.frequency_policy import FrequencyPolicy

POLICY_REGISTRY: Dict[str, Callable[[], DeletionPolicy]] = {
    DefaultPolicy.name: DefaultPolicy,
    FrequencyPolicy.name: FrequencyPolicy,
}

#: Label convention from the paper (Sec. 5.1): 0 = default, 1 = frequency.
LABEL_TO_POLICY = {0: DefaultPolicy.name, 1: FrequencyPolicy.name}


def get_policy(name: str) -> DeletionPolicy:
    """Instantiate a registered policy by name."""
    try:
        factory = POLICY_REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown policy {name!r}; available: {sorted(POLICY_REGISTRY)}"
        ) from None
    return factory()


def policy_names() -> List[str]:
    """Names of every registered deletion policy, sorted."""
    return sorted(POLICY_REGISTRY)
