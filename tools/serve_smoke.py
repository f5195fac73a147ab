"""CI smoke test for ``repro serve``.

Starts the replay server as a real subprocess (``python -m repro serve``)
over a generated graph, waits for ``/healthz``, compiles a constraint
through ``/prepare``, replays a verified workload through ``/query``
and ``/batch``, and asserts every HTTP answer matches the
``rlc-index`` engine queried directly in this process.  It also checks
that a repeated ``/query`` is served from the result cache, that the
``rlc`` alias reuses the default engine instead of building a second
one, and that the flag of the removed on-disk result store is rejected.
A concurrent phase then sends ``/query`` from four threads while a
fifth sends ``/batch``: every answer must still match, and the change
in ``cache_hits + cache_misses`` on ``/stats`` must equal the number
of queries sent.
Run from the repository root::

    PYTHONPATH=src python tools/serve_smoke.py

Exits non-zero (with the server's stderr echoed) on any disagreement,
so a CI job wired to this script fails fast when the serving stack and
the engine layer drift apart.
"""

from __future__ import annotations

import json
import os
import pathlib
import socket
import subprocess
import sys
import tempfile
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.engine import create_engine  # noqa: E402
from repro.graph import generators  # noqa: E402
from repro.graph.io import write_edge_list  # noqa: E402
from repro.workloads import generate_workload  # noqa: E402

STARTUP_TIMEOUT = 60.0

#: Threads sending /query during the concurrent phase (one more sends /batch).
QUERY_THREADS = 4
#: Times the /batch thread replays the whole workload.
BATCH_ROUNDS = 5


def free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def get(url: str):
    with urllib.request.urlopen(url, timeout=10) as response:
        return json.loads(response.read())


def post(url: str, payload: dict):
    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=30) as response:
        return json.loads(response.read())


def wait_for_health(url: str, process: subprocess.Popen) -> dict:
    deadline = time.monotonic() + STARTUP_TIMEOUT
    while time.monotonic() < deadline:
        if process.poll() is not None:
            raise RuntimeError("server exited before becoming healthy")
        try:
            return get(url + "/healthz")
        except (urllib.error.URLError, ConnectionError):
            time.sleep(0.2)
    raise RuntimeError(f"server not healthy within {STARTUP_TIMEOUT}s")


def query_payload(query) -> dict:
    return {
        "source": query.source,
        "target": query.target,
        "labels": list(query.labels),
    }


def concurrent_phase(url: str, queries: list, expected: list) -> None:
    """/query from QUERY_THREADS threads while one thread sends /batch."""

    def point_client(offset: int) -> int:
        order = queries[offset:] + queries[:offset]
        answers = expected[offset:] + expected[:offset]
        for query, answer in zip(order, answers):
            body = post(url + "/query", query_payload(query))
            assert body["answer"] == answer, f"/query {query}: {body}"
        return len(order)

    def batch_client() -> int:
        payload = {"queries": [query_payload(query) for query in queries]}
        for _ in range(BATCH_ROUNDS):
            assert post(url + "/batch", payload)["answers"] == expected
        return BATCH_ROUNDS * len(queries)

    def served() -> int:
        counters = get(url + "/stats")["services"]["rlc-index"]
        return counters["cache_hits"] + counters["cache_misses"]

    before = served()
    step = max(len(queries) // QUERY_THREADS, 1)
    with ThreadPoolExecutor(max_workers=QUERY_THREADS + 1) as pool:
        futures = [pool.submit(batch_client)] + [
            pool.submit(point_client, thread * step)
            for thread in range(QUERY_THREADS)
        ]
        sent = sum(future.result() for future in futures)
    counted = served() - before
    assert counted == sent, f"/stats counted {counted} of {sent} queries"
    print(
        f"concurrent ok: {QUERY_THREADS} /query threads and one /batch "
        f"thread, {sent} queries, all answers match, counters exact"
    )


def main() -> int:
    graph = generators.labeled_erdos_renyi(300, 3, 6, seed=7)
    workload = generate_workload(
        graph, 2, num_true=40, num_false=40, seed=11, graph_name="smoke"
    )
    engine = create_engine("rlc-index", graph, k=2)

    port = free_port()
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    with tempfile.TemporaryDirectory() as tmp:
        graph_path = os.path.join(tmp, "smoke.txt")
        write_edge_list(graph, graph_path)
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve", graph_path,
                "--engine", "rlc-index", "--port", str(port), "--quiet",
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        url = f"http://127.0.0.1:{port}"
        try:
            health = wait_for_health(url, process)
            assert health["ok"] is True, health
            assert health["vertices"] == graph.num_vertices, health
            assert health["engine"] == "rlc-index", health
            print(f"healthz ok: {health['vertices']} vertices on {url}")

            sample = next(iter(workload))
            prepared = post(url + "/prepare", {"labels": list(sample.labels)})
            local = engine.prepare_query(sample.labels)
            assert prepared["labels"] == list(local.labels), prepared
            assert prepared["constraint"] == local.constraint_text(), prepared
            assert prepared["engine_id"] == engine.name, prepared
            print(
                f"/prepare ok: {prepared['constraint']} -> "
                f"labels {prepared['labels']}"
            )

            mismatches = 0
            for query in workload:
                body = post(url + "/query", query_payload(query))
                direct = engine.query_prepared(
                    query.labels, query.source, query.target
                )
                if body["answer"] != direct:
                    mismatches += 1
                    print(
                        f"MISMATCH {query}: served {body['answer']}, "
                        f"engine {direct}",
                        file=sys.stderr,
                    )
            assert mismatches == 0, f"{mismatches} /query answers disagreed"
            print(f"/query ok: {len(list(workload))} answers match rlc-index")

            repeat = query_payload(sample)
            again = post(url + "/query", repeat)
            assert again["cached"] is True, again
            aliased = post(url + "/query", dict(repeat, engine="rlc"))
            assert aliased["cached"] is True, aliased
            stats = get(url + "/stats")
            assert stats["engines"] == ["rlc-index"], stats["engines"]
            assert sorted(stats["services"]) == ["rlc-index"], stats
            print("/query cache ok: repeats are cached, 'rlc' shares rlc-index")

            batch = post(
                url + "/batch",
                {
                    "queries": [
                        dict(query_payload(q), expected=expected)
                        for q, expected in workload.labeled_queries()
                    ]
                },
            )
            assert batch["ok"] is True, batch
            direct = [
                engine.query_prepared(q.labels, q.source, q.target)
                for q in workload
            ]
            assert batch["answers"] == direct
            print(
                f"/batch ok: {batch['total']} queries, "
                f"{batch['mismatches']} mismatches"
            )

            concurrent_phase(url, list(workload), direct)
        except Exception:
            process.terminate()
            _, stderr = process.communicate(timeout=15)
            print("--- server stderr ---", file=sys.stderr)
            print(stderr, file=sys.stderr)
            raise
        else:
            process.terminate()
            process.communicate(timeout=15)
        # A flag the CLI no longer has must fail fast, not start a server.
        removed_flag = "--cache-dir"
        rejected = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve", graph_path,
                "--port", str(free_port()), "--quiet", removed_flag, tmp,
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            code = rejected.wait(timeout=STARTUP_TIMEOUT)
        except subprocess.TimeoutExpired:
            rejected.kill()
            code = 0
        rejected.communicate(timeout=15)
        assert code != 0, f"serve {removed_flag} started a server"
        print(f"serve {removed_flag} rejected (exit {code})")
    print("serve smoke passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
