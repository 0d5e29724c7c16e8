"""Seeded networks and instances for the benchmark workloads.

Each workload has a fixed set of networks and a fixed pool of instances,
both built from a construction seed of its own; the run's ``--seed`` sets
the order in which each round visits the pool.  Networks are kept fixed
because their difficulty differs far more than the benchmark's bounds
allow: across four random 24x8x3 networks the median improved-mode
explanation took 0.06 s on one and 0.28 s on another, so a run that drew
its own networks would measure which networks it drew.  Instances are kept
fixed so that every run attempts the same operations: an explanation on
which the program fails, fails in every round of every run, and the failed
share of a run does not depend on the seed.

The shapes are as large as lets one run explain enough instances for their
median to hold from seed to seed: with 24x8 networks a 30 s run explained
16 instances per mode and its timing medians spread by 15-40% between
seeds.

Networks follow the shape of the test suite's generator: unit-box domain,
weights ~ N(0, 1)/sqrt(fan-in), biases ~ N(0, 0.3^2).  A network whose
prediction is (nearly) constant over the domain is rejected, because its
explanations are empty and cost nothing.  An instance whose top two outputs
lie within ``TIE_MARGIN`` of each other is rejected, because it has no clear
prediction to explain.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

CLASSES = 3
TIE_MARGIN = 0.01
# the second most frequent predicted class must cover this share of the domain
MIN_MINORITY_SHARE = 0.05
SHARE_SAMPLES = 4096


@dataclass(frozen=True)
class Workload:
    name: str
    inputs: int
    hidden: tuple
    networks: int
    instances: int  # pool instances per network
    construction_seed: int
    # instances added to the pool, each as (instance_stream seed, round, network)
    extra: tuple = ()


WORKLOADS = {
    w.name: w for w in (
        # many attributes, shallow B&B trees: per-query fixed cost dominates
        # The extra instance is one on which baseline mode raises
        # SolverFailure in the LP core's certificate check (see CHANGES.md);
        # it is kept so that the fault shows as one failed operation per round.
        Workload("wide-shallow", 16, (6,), networks=6, instances=3,
                 construction_seed=1166, extra=((68, 4, 4),)),
        # few attributes, deep B&B trees: the regime where simplification
        # removes the most binaries and improved mode saves the most
        Workload("deep-narrow", 8, (4, 4, 4), networks=5, instances=3,
                 construction_seed=844),
    )
}


def forward(doc: dict, points: np.ndarray) -> list[np.ndarray]:
    """Pre-activations of every layer of a model document for a (m, n) batch,
    by a numpy forward pass of the benchmark's own; the last entry is the
    output layer."""
    pres = []
    cur = np.atleast_2d(points).T
    for layer in doc["layers"]:
        pre = np.asarray(layer["weights"]) @ cur + np.asarray(layer["biases"])[:, None]
        pres.append(pre.T)
        cur = np.maximum(pre, 0.0) if layer["activation"] == "relu" else pre
    return pres


def random_document(rng: np.random.Generator, inputs: int, hidden: tuple) -> dict:
    layers = []
    prev = inputs
    for width, act in [(w, "relu") for w in hidden] + [(CLASSES, "identity")]:
        weights = rng.normal(0.0, 1.0, size=(width, prev)) / np.sqrt(prev)
        biases = rng.normal(0.0, 0.3, size=width)
        layers.append({"weights": weights.tolist(), "biases": biases.tolist(),
                       "activation": act})
        prev = width
    return {"input_dim": inputs, "input_domain": [[0.0, 1.0]] * inputs,
            "layers": layers}


def minority_share(doc: dict, rng: np.random.Generator) -> float:
    """Share of uniform domain samples predicted as the second most frequent
    class."""
    points = rng.uniform(0.0, 1.0, size=(SHARE_SAMPLES, doc["input_dim"]))
    predicted = np.argmax(forward(doc, points)[-1], axis=1)
    counts = np.sort(np.bincount(predicted, minlength=CLASSES))
    return counts[-2] / SHARE_SAMPLES


def network_documents(workload: Workload) -> list[dict]:
    """The workload's fixed model documents (JSON schema of the CLI)."""
    rng = np.random.default_rng(workload.construction_seed)
    docs = []
    while len(docs) < workload.networks:
        doc = random_document(rng, workload.inputs, workload.hidden)
        if minority_share(doc, rng) >= MIN_MINORITY_SHARE:
            docs.append(doc)
    return docs


def instance_stream(docs: list[dict], seed):
    """Endless rounds of one instance per network, drawn from ``seed``.

    Yields lists of in-domain points, one per network, each with a clear
    prediction.
    """
    rng = np.random.default_rng(seed)
    while True:
        round_ = []
        for doc in docs:
            while True:
                point = rng.uniform(0.0, 1.0, size=doc["input_dim"])
                top = np.sort(forward(doc, point)[-1][0])
                if top[-1] - top[-2] >= TIE_MARGIN:
                    round_.append(point)
                    break
        yield round_


def instance_pool(workload: Workload, docs: list[dict]) -> list[tuple[int, np.ndarray]]:
    """The workload's fixed instances as ``(network index, point)`` pairs:
    ``instances`` rounds of the stream seeded from the construction seed,
    then the ``extra`` ones."""
    stream = instance_stream(docs, [workload.construction_seed, 1])
    pool = [(k, x) for _ in range(workload.instances) for k, x in enumerate(next(stream))]
    for seed, round_, k in workload.extra:
        stream = instance_stream(docs, seed)
        for _ in range(round_):
            next(stream)
        pool.append((k, next(stream)[k]))
    return pool


def round_orders(size: int, seed: int):
    """Endless permutations of ``range(size)`` drawn from ``seed``: the order
    in which each round visits the pool."""
    rng = np.random.default_rng(seed)
    while True:
        yield [int(i) for i in rng.permutation(size)]
