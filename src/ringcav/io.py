"""CSV/JSON file formats and run manifests. Plumbing, no physics."""
from __future__ import annotations

import csv
import json
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

FLOAT_FMT = "%.12g"
#: rows formatted per write; bounds the text and Python floats held at once
CHUNK_ROWS = 1024


def write_columns_csv(path, header: list[str], columns: list) -> None:
    """Header through csv.writer, then FLOAT_FMT rows with csv's CRLF line ends.

    A formatted number never needs quoting, so rows are formatted a chunk at
    a time from plain Python numbers and written with one call per chunk.
    """
    cols = [np.asarray(c) for c in columns]
    if len({len(c) for c in cols}) > 1:
        raise ValueError("columns differ in length")
    row = ",".join([FLOAT_FMT] * len(cols)) + "\r\n"
    n = len(cols[0]) if cols else 0
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(header)
        for i in range(0, n, CHUNK_ROWS):
            chunk = zip(*(c[i:i + CHUNK_ROWS].tolist() for c in cols))
            fh.write("".join([row % values for values in chunk]))


def read_columns_csv(path) -> dict:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [[float(v) for v in row] for row in reader if row]
    data = np.array(rows, dtype=float) if rows else np.empty((0, len(header)))
    return {name: data[:, i] for i, name in enumerate(header)}


def write_spectrum_csv(path, detuning_mhz, transmission) -> None:
    write_columns_csv(path, ["detuning_mhz", "transmission"], [detuning_mhz, transmission])


def write_saturation_csv(path, power_w, t_atoms, t_empty) -> None:
    write_columns_csv(
        path, ["power_w", "transmission_atoms", "transmission_empty"],
        [power_w, t_atoms, t_empty],
    )


def write_timeseries_csv(path, series) -> None:
    write_columns_csv(
        path,
        ["time_s", "heater_detuning_mhz", "resonance_offset_mhz", "p_circ_w",
         "probe_transmission"],
        [series.time_s, series.heater_detuning_hz / 1e6, series.resonance_offset_hz / 1e6,
         series.p_circ_w, series.probe_transmission],
    )


def write_residuals_csv(path, x, yobs, ymodel) -> None:
    write_columns_csv(
        path, ["x", "yobs", "ymodel", "residual"], [x, yobs, ymodel, np.asarray(yobs) - ymodel]
    )


def read_dataset_csv(path):
    """First column x, second yobs, optional column named 'sigma'."""
    cols = read_columns_csv(path)
    names = list(cols)
    if len(names) < 2:
        raise ValueError(f"{path}: need at least two columns, got {names}")
    sigma = cols.get("sigma")
    return cols[names[0]], cols[names[1]], sigma


def write_json(path, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def build_manifest(command: str, resolved: dict, inputs: list, outputs: list) -> dict:
    from . import __version__

    return {
        "command": command,
        "resolved": resolved,
        "inputs": [str(p) for p in inputs],
        "outputs": [str(p) for p in outputs],
        "version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }


def manifest_path(output_path) -> Path:
    p = Path(output_path)
    return p.with_name(p.name + ".manifest.json")
