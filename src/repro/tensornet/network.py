"""Graph-structured tensor networks with contraction planning (Fig. 1).

A :class:`TensorNetwork` holds named tensors whose axes carry index labels;
axes of different tensors sharing a label are bond (contracted) indices,
labels appearing on exactly one tensor are free (dangling) indices.  The
network contracts either in one shot via einsum or pairwise following a
greedy schedule that always merges the pair producing the smallest
intermediate — the classic heuristic for contraction-order planning.
"""

from __future__ import annotations

import string
from dataclasses import dataclass

import numpy as np

from repro.errors import ShapeError


@dataclass
class ContractionStep:
    """One pairwise merge in a contraction schedule."""

    left: str
    right: str
    result: str
    result_size: int


class TensorNetwork:
    """A collection of labeled tensors forming a contractible network."""

    def __init__(self) -> None:
        self._tensors: dict[str, np.ndarray] = {}
        self._labels: dict[str, tuple[str, ...]] = {}
        self._dims: dict[str, int] = {}

    # -- construction -------------------------------------------------------

    def add(self, name: str, tensor: np.ndarray, labels: tuple[str, ...] | list[str]) -> None:
        """Add ``tensor`` with one label per axis.

        Labels shared with existing tensors become bonds and must agree in
        dimension; a label may appear on at most two tensors (tensor-network
        edges are pairwise).
        """
        tensor = np.asarray(tensor)
        labels = tuple(labels)
        if name in self._tensors:
            raise ShapeError(f"tensor {name!r} already in network")
        if len(labels) != tensor.ndim:
            raise ShapeError(
                f"tensor {name!r} has order {tensor.ndim} but {len(labels)} labels"
            )
        if len(set(labels)) != len(labels):
            raise ShapeError(f"tensor {name!r} repeats a label: {labels}")
        for label, dim in zip(labels, tensor.shape):
            if label in self._dims:
                if self._dims[label] != dim:
                    raise ShapeError(
                        f"label {label!r} has dimension {self._dims[label]} in the "
                        f"network but {dim} on tensor {name!r}"
                    )
                holders = self._holders(label)
                if len(holders) >= 2:
                    raise ShapeError(
                        f"label {label!r} already connects {holders}; a bond joins "
                        "at most two tensors"
                    )
            self._dims[label] = dim
        self._tensors[name] = tensor
        self._labels[name] = labels

    def _holders(self, label: str) -> list[str]:
        return [name for name, labels in self._labels.items() if label in labels]

    # -- structure -----------------------------------------------------------

    @property
    def names(self) -> list[str]:
        return list(self._tensors)

    def order(self, name: str) -> int:
        return self._tensors[name].ndim

    def free_labels(self) -> list[str]:
        """Dangling indices, in first-appearance order (the output axes)."""
        counts: dict[str, int] = {}
        ordered: list[str] = []
        for labels in self._labels.values():
            for label in labels:
                if label not in counts:
                    ordered.append(label)
                counts[label] = counts.get(label, 0) + 1
        return [label for label in ordered if counts[label] == 1]

    def bond_labels(self) -> list[str]:
        counts: dict[str, int] = {}
        for labels in self._labels.values():
            for label in labels:
                counts[label] = counts.get(label, 0) + 1
        return sorted(label for label, c in counts.items() if c == 2)

    # -- contraction ------------------------------------------------------------

    def _einsum_spec(self) -> tuple[str, list[np.ndarray]]:
        alphabet = string.ascii_letters
        all_labels: list[str] = []
        for labels in self._labels.values():
            for label in labels:
                if label not in all_labels:
                    all_labels.append(label)
        if len(all_labels) > len(alphabet):
            raise ShapeError(f"too many distinct labels ({len(all_labels)}) for einsum")
        letter = {label: alphabet[i] for i, label in enumerate(all_labels)}
        parts = [
            "".join(letter[lab] for lab in self._labels[name]) for name in self._tensors
        ]
        out = "".join(letter[lab] for lab in self.free_labels())
        spec = ",".join(parts) + "->" + out
        return spec, list(self._tensors.values())

    def contract(self) -> np.ndarray:
        """Contract the whole network; output axes follow free-label order."""
        if not self._tensors:
            raise ShapeError("cannot contract an empty network")
        spec, arrays = self._einsum_spec()
        return np.einsum(spec, *arrays, optimize=True)

    def greedy_schedule(self) -> list[ContractionStep]:
        """Plan pairwise contractions, smallest intermediate first.

        Only pairs connected by a bond are considered (falling back to outer
        products when the network is disconnected).  Returns the sequence of
        merges with the size of each intermediate, which the Figure 1 bench
        compares against naive left-to-right contraction.
        """
        labels = {name: list(lab) for name, lab in self._labels.items()}
        sizes = dict(self._dims)
        steps: list[ContractionStep] = []
        live = set(labels)
        counter = 0

        def result_info(a: str, b: str) -> tuple[list[str], int]:
            shared = set(labels[a]) & set(labels[b])
            out = [lab for lab in labels[a] + labels[b] if lab not in shared]
            size = 1
            for lab in out:
                size *= sizes[lab]
            return out, size

        while len(live) > 1:
            candidates = []
            for a in live:
                for b in live:
                    if a >= b:
                        continue
                    shared = set(labels[a]) & set(labels[b])
                    out, size = result_info(a, b)
                    candidates.append((not shared, size, a, b, out))
            __, size, a, b, out = min(candidates)[0:5]
            counter += 1
            new_name = f"t{counter}"
            steps.append(ContractionStep(left=a, right=b, result=new_name, result_size=size))
            labels[new_name] = out
            live.discard(a)
            live.discard(b)
            live.add(new_name)
        return steps

    def contract_with_schedule(self) -> tuple[np.ndarray, list[ContractionStep]]:
        """Execute the greedy schedule pairwise; returns (result, steps).

        The result axes are permuted to match :meth:`contract` so the two
        paths are directly comparable in tests.
        """
        schedule = self.greedy_schedule()
        arrays = dict(self._tensors)
        labels = {name: list(lab) for name, lab in self._labels.items()}
        for step in schedule:
            a, b = arrays.pop(step.left), arrays.pop(step.right)
            la, lb = labels.pop(step.left), labels.pop(step.right)
            shared = [lab for lab in la if lab in lb]
            axes_a = tuple(la.index(lab) for lab in shared)
            axes_b = tuple(lb.index(lab) for lab in shared)
            merged = np.tensordot(a, b, axes=(axes_a, axes_b))
            out_labels = [lab for lab in la if lab not in shared] + [
                lab for lab in lb if lab not in shared
            ]
            arrays[step.result] = merged
            labels[step.result] = out_labels
        (final_name,) = arrays
        result = arrays[final_name]
        final_labels = labels[final_name]
        target = self.free_labels()
        if final_labels != target:
            perm = tuple(final_labels.index(lab) for lab in target)
            result = result.transpose(perm)
        return result, schedule
