"""faasim's JSON documents as the tests read and write them.

`dumps` is the text `jsontext.write` writes, as one string without its
closing newline; `graph_from_doc` reads a parsed task graph document as
`load_task_graph` reads a file once it is parsed, the oracle of the
file reader.
"""

import io

from faasim import jsontext
from faasim import workloads as wl


def dumps(obj, sort_keys: bool = False) -> str:
    """What `jsontext.write` writes of `obj`, its closing newline left off: `json.dumps(obj, indent=2)`'s text."""
    out = io.StringIO()
    jsontext.write(out, obj, sort_keys)
    return out.getvalue()[:-1]


def graph_from_doc(doc) -> wl.TaskGraph:
    """The graph of a parsed task graph document: its tasks, then its edges, each one run of the column builder."""
    return wl._graph_builder()[2](doc)
