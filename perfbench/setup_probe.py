"""Time one set-up in a fresh interpreter and print the seconds.

The clock starts before ``import repro`` and stops once the search session
(``search``) or the search server (``service``) is constructed::

    python3 perfbench/setup_probe.py SRC search '<SearchSpec JSON>' ROOT
    python3 perfbench/setup_probe.py SRC service '<server kwargs JSON>' ROOT
"""

import json
import sys
import time


def main() -> None:
    src, kind, payload, root = sys.argv[1:5]
    sys.path.insert(0, src)
    start = time.perf_counter()
    import repro

    if kind == "search":
        repro.SearchSession(repro.SearchSpec.from_json(payload))
        print(time.perf_counter() - start)
        return
    from repro.service import ResultStore, SearchServer

    server = SearchServer(store=ResultStore(root=root), **json.loads(payload))
    elapsed = time.perf_counter() - start
    server.close()
    print(elapsed)


if __name__ == "__main__":
    main()
