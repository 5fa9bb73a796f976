#!/usr/bin/env python3
"""Plot the paper's figures from the CSVs the bench binaries write.

Usage:
    build/bench/paper_figures                # writes bench_out/fig*.csv
    python3 tools/plot_figures.py            # writes bench_out/*.png

Requires matplotlib. Each CSV has a shared `time` (or x) column followed
by one column per series, matching the paper's figure panels:

    fig4a_alive_speed1.csv    alive fraction vs time (Fig. 4a)
    fig5b_aen_speed10.csv     aen vs time (Fig. 5b)
    fig6a_latency_speed1.csv  mean latency (ms) vs pause time (Fig. 6a)
    fig7b_pdr_speed10.csv     delivery rate (%) vs pause time (Fig. 7b)
    fig8a_density_speed1.csv  alive fraction vs time per density (Fig. 8a)
"""

import csv
import pathlib
import sys

AXIS_LABELS = {
    "fig4": ("Simulation time (s)", "Fraction of alive hosts"),
    "fig5": ("Simulation time (s)", "Mean energy consumption per host (aen)"),
    "fig6": ("Pause time (s)", "Mean packet delivery latency (ms)"),
    "fig7": ("Pause time (s)", "Packet delivery rate (%)"),
    "fig8": ("Simulation time (s)", "Fraction of alive hosts"),
}


def load(path):
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    header = rows[0]
    columns = {name: [] for name in header}
    for row in rows[1:]:
        for name, cell in zip(header, row):
            if cell:
                columns[name].append(float(cell))
    return header, columns


def main():
    try:
        import matplotlib

        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        sys.exit("matplotlib is required: pip install matplotlib")

    out_dir = pathlib.Path("bench_out")
    csvs = sorted(out_dir.glob("fig*.csv"))
    if not csvs:
        sys.exit("no bench_out/fig*.csv found — run the fig benches first")

    for path in csvs:
        header, columns = load(path)
        x_name = header[0]
        x = columns[x_name]
        fig, ax = plt.subplots(figsize=(6, 4))
        for name in header[1:]:
            y = columns[name]
            ax.plot(x[: len(y)], y, marker="o", markersize=3, label=name)
        key = path.stem[:4]
        xlabel, ylabel = AXIS_LABELS.get(key, (x_name, "value"))
        ax.set_xlabel(xlabel)
        ax.set_ylabel(ylabel)
        ax.set_title(path.stem)
        ax.grid(True, alpha=0.3)
        ax.legend(fontsize=8)
        fig.tight_layout()
        png = path.with_suffix(".png")
        fig.savefig(png, dpi=130)
        plt.close(fig)
        print(f"wrote {png}")


if __name__ == "__main__":
    main()
