"""Set-up as a user pays it: a fresh interpreter imports `mwns` and parses
the workload's instance files, read as a JSON list of texts on stdin.
Prints the number of instances and edges parsed, for the caller to check."""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from mwns.instance_io import parse_instance  # noqa: E402

instances = [parse_instance(text) for text in json.load(sys.stdin)]
print(json.dumps({"instances": len(instances), "edges": sum(i.graph.m for i in instances)}))
