"""Frozen-reference logits for the HGT forward pass, and a frozen
training run.

``tests/data/hgt_reference_logits.json`` holds the logits of a seeded
``NeuroSelect(hidden_dim=32, seed=0)`` on seeded graphs of the three
served formula families (threshold random 3-SAT, flat 3-colouring,
renamed pigeonhole), for one graph at a time, a batch of 4 and a batch
of 16.  The batched-vs-single equality tests in ``test_batching.py``
compare two paths of the same code; this file pins both to numbers
recorded before the forward pass was last optimised, so a change that
moves the batched and single-graph paths together still fails here.

The ``"training"`` entry pins one short ``Trainer`` fit (per-epoch loss
and accuracy, then the calibrated threshold) on a fixed toy set, so a
change to the training loop, the optimizer or the class weights that
moves any of those numbers fails here too.

Regenerate (only after an intended change to the model's numbers) with
``PYTHONPATH=src python tests/test_hgt_reference.py``.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.cnf import graph_coloring, pigeonhole, random_ksat, rename_variables
from repro.graph import BipartiteGraph, batch_graphs
from repro.models import NeuroSelect
from repro.selection import Trainer
from tests.conftest import make_labeled

REFERENCE = Path(__file__).parent / "data" / "hgt_reference_logits.json"

FAMILIES = (
    lambda seed: random_ksat(80, 341, seed=seed),
    lambda seed: graph_coloring(60, 3, 2.3, seed=seed, mode="flat"),
    lambda seed: rename_variables(pigeonhole(5), seed=seed),
)


def member_graphs(count: int, seed: int):
    """``count`` graphs cycling through the three families."""
    return [
        BipartiteGraph(FAMILIES[i % len(FAMILIES)](seed + i)) for i in range(count)
    ]


#: name -> graphs; "single" members are run one forward pass each.
CASES = {
    "single": lambda: member_graphs(3, seed=100),
    "batch4": lambda: member_graphs(4, seed=200),
    "batch16": lambda: member_graphs(16, seed=300),
}


def compute_logits(name: str):
    model = NeuroSelect(hidden_dim=32, seed=0)
    graphs = CASES[name]()
    if name == "single":
        return [float(model.forward(g).data.ravel()[0]) for g in graphs]
    return [float(x) for x in model.forward_batch(batch_graphs(graphs)).data.ravel()]


def compute_training():
    """Fit a small NeuroSelect on six 3-SAT formulas, two labelled 1."""
    instances = [
        make_labeled(random_ksat(20 + 2 * i, 85 + 9 * i, seed=i), int(i % 3 == 0))
        for i in range(6)
    ]
    trainer = Trainer(NeuroSelect(hidden_dim=8, seed=0), learning_rate=5e-3, epochs=3)
    history = trainer.fit(instances)
    return {
        "losses": history.losses,
        "accuracies": history.accuracies,
        "threshold": trainer.threshold,
    }


def compute_reference():
    reference = {name: compute_logits(name) for name in CASES}
    reference["training"] = compute_training()
    return reference


@pytest.fixture(scope="module")
def reference():
    return json.loads(REFERENCE.read_text())


@pytest.mark.parametrize("name", sorted(CASES))
def test_logits_match_frozen_reference(reference, name):
    np.testing.assert_allclose(
        compute_logits(name), reference[name], rtol=0, atol=1e-12
    )


def _sigmoid(raw: float) -> float:
    """The probability formula of ``NeuroSelect.predict_proba*``."""
    return float(1.0 / (1.0 + np.exp(-np.clip(raw, -60.0, 60.0))))


@pytest.mark.parametrize("name", sorted(CASES))
def test_inference_path_matches_frozen_reference(reference, name):
    """``predict_proba`` / ``predict_proba_batch`` run without the autograd
    tape; their probabilities stay those of the frozen logits, bit for bit,
    and no parameter gains a gradient."""
    model = NeuroSelect(hidden_dim=32, seed=0)
    outputs = []
    for method in ("forward", "forward_batch"):
        setattr(model, method, _keeping_outputs(getattr(model, method), outputs))
    graphs = CASES[name]()
    if name == "single":
        probabilities = [model.predict_proba(g) for g in graphs]
    else:
        probabilities = model.predict_proba_batch(batch_graphs(graphs))
    assert probabilities == [_sigmoid(raw) for raw in reference[name]]
    assert all(p.grad is None for p in model.parameters())
    assert outputs and all(
        not out.requires_grad and out._parents == () for out in outputs
    )


def _keeping_outputs(method, outputs):
    def wrapper(*args):
        out = method(*args)
        outputs.append(out)
        return out

    return wrapper


def test_training_matches_frozen_reference(reference):
    expected = reference["training"]
    actual = compute_training()
    for key in ("losses", "accuracies", "threshold"):
        np.testing.assert_allclose(actual[key], expected[key], rtol=0, atol=1e-12)


def test_reference_covers_every_case(reference):
    assert sorted(reference) == sorted([*CASES, "training"])
    assert len(reference["training"]["losses"]) == 3
    assert [len(reference[k]) for k in ("single", "batch4", "batch16")] == [3, 4, 16]


if __name__ == "__main__":
    REFERENCE.write_text(
        json.dumps(compute_reference(), indent=1, sort_keys=True) + "\n"
    )
    print(f"wrote {REFERENCE}")
