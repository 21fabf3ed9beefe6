"""JSON round trips of spectrum lists and metric graphs, which only the
tests use: the package writes its spectra as CSV (``SpectrumList.to_csv``)."""

import json

from dense_reference import MetricGraph
from fractal_spectra.eigensolve import SpectrumEntry, SpectrumList


def spectrum_to_json(s: SpectrumList) -> str:
    return json.dumps(
        {
            "origin": s.origin,
            "truncation": s.truncation,
            "pitch": s.pitch,
            "entries": [
                {"value": repr(e.value), "multiplicity": e.multiplicity, "tag": e.tag}
                for e in s.entries
            ],
        },
        sort_keys=True,
    )


def spectrum_from_json(text: str) -> SpectrumList:
    doc = json.loads(text)
    return SpectrumList(
        entries=[SpectrumEntry(float(d["value"]), d["multiplicity"], d["tag"])
                 for d in doc["entries"]],
        origin=doc["origin"],
        truncation=doc["truncation"],
        pitch=doc["pitch"],
    )


def graph_to_json(g: MetricGraph) -> str:
    doc = {"labels": g.labels, "dirichlet": g.dirichlet, "ends": g.ends, "length": g.length,
           "weight": g.weight}
    return json.dumps(doc, sort_keys=True)


def graph_from_json(text: str) -> MetricGraph:
    doc = json.loads(text)
    return MetricGraph(doc["labels"], doc["ends"], doc["length"], doc["weight"], doc["dirichlet"])
