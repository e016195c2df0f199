"""Regeneration of the paper's Figure 2 and Figure 3.

- **Figure 2** plots the ECDF of 2-NN dissimilarities of NTP segments
  with the Kneedle-detected knee used as epsilon.
- **Figure 3** shows typical heuristic boundary errors on NTP
  timestamps: extra boundaries splitting the static prefix from the
  high-entropy fraction bytes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.autoconf import configure
from repro.core.ecdf import Ecdf
from repro.core.matrix import DissimilarityMatrix, MatrixBuildOptions
from repro.core.segments import segments_from_fields, unique_segments
from repro.eval.reporting import ascii_plot
from repro.eval.runner import DEFAULT_SEED, prepare_trace
from repro.segmenters.nemesys import NemesysSegmenter


@dataclass
class Figure2:
    """ECDF + smoothed curve + knee for one trace (paper: NTP, 1000)."""

    protocol: str
    message_count: int
    k: int
    ecdf_x: np.ndarray
    ecdf_y: np.ndarray
    smooth_x: np.ndarray
    smooth_y: np.ndarray
    epsilon: float

    def render(self) -> str:
        plot = ascii_plot(
            self.smooth_x,
            self.smooth_y,
            annotations={self.epsilon: f"knee -> epsilon = {self.epsilon:.3f}"},
        )
        header = (
            f"Figure 2 - ECDF E_{self.k} of {self.protocol.upper()} "
            f"({self.message_count} msgs) k-NN dissimilarities, knee = epsilon"
        )
        return header + "\n" + plot


def run_figure2(
    protocol: str = "ntp",
    message_count: int = 1000,
    seed: int = DEFAULT_SEED,
    matrix_options: MatrixBuildOptions | None = None,
) -> Figure2:
    """Compute Figure 2's ECDF + knee for one protocol trace."""
    model, trace = prepare_trace(protocol, message_count, seed)
    segments = []
    for index, message in enumerate(trace):
        segments.extend(
            segments_from_fields(index, message.data, model.dissect(message.data))
        )
    uniq = unique_segments(segments)
    matrix = DissimilarityMatrix.build(uniq, options=matrix_options)
    auto = configure(matrix)
    raw = Ecdf.from_samples(matrix.knn_distances_all(auto.k)[:, auto.k - 1])
    ecdf_x, ecdf_y = raw.step_points
    return Figure2(
        protocol=protocol,
        message_count=message_count,
        k=auto.k,
        ecdf_x=ecdf_x,
        ecdf_y=ecdf_y,
        smooth_x=auto.curve_x,
        smooth_y=auto.curve_y,
        epsilon=auto.epsilon,
    )


@dataclass
class Figure3Example:
    """One NTP timestamp with true extent and inferred boundaries."""

    message_index: int
    field_name: str
    field_hex: str
    true_span: tuple[int, int]
    inferred_cuts: list[int]  # boundary offsets relative to the field start

    def render(self) -> str:
        marked = ""
        for i in range(0, len(self.field_hex), 2):
            byte_pos = i // 2
            if byte_pos in self.inferred_cuts:
                marked += "|"
            marked += self.field_hex[i : i + 2]
        return f"msg {self.message_index:4d} {self.field_name:20s} {marked}"


@dataclass
class Figure3:
    examples: list[Figure3Example]

    def render(self) -> str:
        lines = [
            "Figure 3 - heuristic boundary errors inside NTP timestamps",
            "('|' marks an inferred NEMESYS boundary inside the true field)",
        ]
        lines += [example.render() for example in self.examples]
        split = sum(1 for e in self.examples if e.inferred_cuts)
        lines.append(
            f"{split}/{len(self.examples)} sampled timestamps were split by "
            "heuristic boundaries"
        )
        return "\n".join(lines)


def run_figure3(
    message_count: int = 100, seed: int = DEFAULT_SEED, samples: int = 9
) -> Figure3:
    """Collect Figure 3's boundary-error examples from NTP timestamps."""
    model, trace = prepare_trace("ntp", message_count, seed)
    segmenter = NemesysSegmenter()
    examples: list[Figure3Example] = []
    for index, message in enumerate(trace):
        if len(examples) >= samples:
            break
        boundaries = set(segmenter.boundaries(message.data))
        for field in model.dissect(message.data):
            if field.ftype != "timestamp" or len(examples) >= samples:
                continue
            value = field.value(message.data)
            if not any(value):
                continue  # skip all-zero request timestamps
            cuts = sorted(
                b - field.offset
                for b in boundaries
                if field.offset < b < field.end
            )
            if not cuts:
                continue
            examples.append(
                Figure3Example(
                    message_index=index,
                    field_name=field.name,
                    field_hex=value.hex(),
                    true_span=(field.offset, field.end),
                    inferred_cuts=cuts,
                )
            )
    return Figure3(examples=examples)
