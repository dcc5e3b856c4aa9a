"""Paper-style table and figure formatting.

The benchmark harness prints the same rows/series the paper reports:
runtimes with speedups-vs-baseline in parentheses, bold-free ASCII.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

__all__ = ["format_runtime_table", "format_scaling_series",
           "format_generic_table", "format_cache_line"]


def _fmt_ms(value: float) -> str:
    if value >= 100:
        return f"{value:.0f}"
    if value >= 10:
        return f"{value:.1f}"
    return f"{value:.3g}"


def format_runtime_table(
    title: str,
    column_labels: Sequence[str],
    rows: Mapping[str, Sequence[float]],
    baselines: Mapping[str, Sequence[float]] | None = None,
) -> str:
    """Runtimes in ms per dataset row, speedup vs baseline in parens.

    Mirrors the layout of the paper's Tables II/IV/V: one row per
    dataset, one column per GPU count.
    """
    header = f"{'Dataset':<20}" + "".join(
        f"{label:>16}" for label in column_labels
    )
    lines = [title, "-" * len(header), header, "-" * len(header)]
    for dataset, values in rows.items():
        cells = []
        for i, value in enumerate(values):
            cell = _fmt_ms(value)
            if baselines is not None and dataset in baselines:
                base = baselines[dataset][i]
                if value > 0:
                    cell += f" (x{base / value:.2f})"
            cells.append(f"{cell:>16}")
        lines.append(f"{dataset:<20}" + "".join(cells))
    return "\n".join(lines)


def format_scaling_series(
    title: str,
    gpu_counts: Sequence[int],
    series: Mapping[str, Sequence[float]],
) -> str:
    """Strong-scaling speedups relative to each series' own 1-GPU time.

    Mirrors the paper's Figures 5/7/8/9 (self-relative speedup vs #GPUs).
    """
    header = f"{'Framework':<28}" + "".join(
        f"{n:>4} GPU" + ("s" if n > 1 else " ") for n in gpu_counts
    )
    lines = [title, "-" * len(header), header, "-" * len(header)]
    for name, times in series.items():
        base = times[0]
        cells = "".join(
            f"{(base / t if t > 0 else float('nan')):>8.2f}" for t in times
        )
        lines.append(f"{name:<28}{cells}")
    return "\n".join(lines)


def format_generic_table(
    title: str,
    header: Sequence[str],
    rows: Iterable[Sequence[object]],
    widths: Sequence[int] | None = None,
) -> str:
    """Uniform fixed-width table for everything else (Table I, III...)."""
    rows = list(rows)
    if widths is None:
        widths = [
            max(
                len(str(header[i])),
                *(len(str(r[i])) for r in rows) if rows else (0,),
            )
            + 2
            for i in range(len(header))
        ]
    def fmt(cells):
        return "".join(f"{str(c):>{w}}" for c, w in zip(cells, widths))

    lines = [title, fmt(header), "-" * sum(widths)]
    lines.extend(fmt(r) for r in rows)
    return "\n".join(lines)


def format_cache_line(
    hits: int, misses: int, label: str = "run cache"
) -> str:
    """One-line persistent-cache effectiveness summary.

    Rendered by ``report``-style summaries and the tune study output —
    never inside the runtime tables themselves, whose bytes must not
    depend on cache temperature.
    """
    total = hits + misses
    rate = (100.0 * hits / total) if total else 0.0
    return (
        f"{label}: {hits} hit{'s' if hits != 1 else ''} / "
        f"{total} run{'s' if total != 1 else ''} ({rate:.0f}% hit rate)"
    )
