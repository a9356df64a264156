#!/usr/bin/env python3
"""Smoke-test a running orchserve daemon over plain HTTP.

Usage: serve_smoke.py BASE_URL GRAPH_FILE WANT_DIGEST

Submits the graph twice (the second submission must be a cache hit),
asserts both results carry WANT_DIGEST — the digest a one-shot orchrun
produced for the same graph — then exercises async submission and
cancellation, and checks /api/v1/stats reflects it all. Last it floods
the daemon with FLOOD concurrent submissions of the graph, each of
which must carry WANT_DIGEST: past the daemon's retention cap of 1024
finished jobs, so the caller can check that the first job's record is
gone. Exits non-zero on the first violated expectation, so CI fails
loudly.
"""
import concurrent.futures
import json
import sys
import time
import urllib.request

FLOOD = 1200
FLOOD_CLIENTS = 8


def call(base, path, body=None):
    data = json.dumps(body).encode() if body is not None else None
    req = urllib.request.Request(base + path, data=data,
                                 headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(req, timeout=60) as resp:
            return resp.status, json.load(resp)
    except urllib.error.HTTPError as e:
        return e.code, json.load(e)


def check(cond, msg):
    if not cond:
        print("serve_smoke: FAIL:", msg, file=sys.stderr)
        sys.exit(1)
    print("serve_smoke: ok:", msg)


def main():
    base, graph_file, want = sys.argv[1], sys.argv[2], sys.argv[3]
    graph = open(graph_file).read()

    # Two synchronous submissions: miss then hit, both matching orchrun.
    code, st = call(base, "/api/v1/jobs", {"graph": graph, "n": 256, "mode": "split"})
    check(code == 200 and st["state"] == "done", f"first submit done (got {code}/{st.get('state')})")
    check(st["cache"] == "miss", f"first submit compiles (cache={st['cache']})")
    check(st["digest"] == want, f"daemon digest matches one-shot orchrun ({st['digest'][:12]}...)")

    code, st2 = call(base, "/api/v1/jobs", {"graph": graph, "n": 256, "mode": "split"})
    check(code == 200 and st2["cache"] == "hit", f"second submit is a cache hit (got {st2.get('cache')})")
    check(st2["digest"] == want, "cached graph digests identically")

    # Async submission + cancellation: a deliberately huge job must land
    # in the canceled state, and the daemon must keep serving afterwards.
    code, big = call(base, "/api/v1/jobs",
                     {"graph": graph, "n": 8192, "work": 1000, "async": True})
    check(code == 202 and big["id"], f"async submit accepted as {big.get('id')}")
    code, _ = call(base, f"/api/v1/jobs/{big['id']}/cancel", {})
    check(code == 200, "cancel endpoint accepted")
    deadline = time.time() + 30
    state = ""
    while time.time() < deadline:
        code, cur = call(base, f"/api/v1/jobs/{big['id']}?wait=1")
        state = cur["state"]
        if state in ("done", "failed", "canceled"):
            break
        time.sleep(0.1)
    check(state == "canceled", f"canceled job reaches the canceled state (got {state})")

    code, after = call(base, "/api/v1/jobs", {"graph": graph, "n": 128})
    check(code == 200 and after["state"] == "done" and after["digest"],
          "daemon still serves jobs after a cancellation")

    # A pipelined operator chain in split mode engages the cache-chain
    # scheduler (the kernels' split annotations qualify every edge), so
    # the daemon's aggregated pipeline counters must reflect it.
    chain_graph = (
        "graph chainsmoke\n"
        "node a kind=par tasks=n\n"
        "node b kind=par tasks=n\n"
        "node c kind=par tasks=n\n"
        "edge a -> b bytes=8 pertask pipelined\n"
        "edge b -> c bytes=8 pertask pipelined\n"
    )
    code, cj = call(base, "/api/v1/jobs",
                    {"graph": chain_graph, "n": 20000, "mode": "split"})
    check(code == 200 and cj["state"] == "done" and cj["digest"],
          f"chained graph executes (got {code}/{cj.get('state')})")

    code, stats = call(base, "/api/v1/stats")
    check(code == 200, "stats endpoint responds")
    check(stats["cache"]["hits"] >= 1, f"graph cache reports hits ({stats['cache']})")
    check(stats["pool"]["free"] == stats["pool"]["size"], f"pool fully released ({stats['pool']})")
    check(stats["jobs"]["canceled"] >= 1, f"job counters saw the cancellation ({stats['jobs']})")
    check(len(stats["allocations"]) >= 1, "allocation decisions are logged")
    pipe = stats["pipeline"]
    check(pipe["chain_hits"] >= 1,
          f"pipeline counters saw the chained job ({pipe})")
    check(pipe["chain_fallbacks"] == 0,
          f"no crash-recovery fallbacks without fault injection ({pipe})")

    # The flood: every job of it digests like the one-shot run.
    def submit(_):
        code, st = call(base, "/api/v1/jobs", {"graph": graph, "n": 256, "mode": "split"})
        return code, st.get("state"), st.get("digest")

    with concurrent.futures.ThreadPoolExecutor(FLOOD_CLIENTS) as pool:
        results = list(pool.map(submit, range(FLOOD)))
    bad = [r for r in results if r != (200, "done", want)]
    check(not bad, f"{FLOOD} flooded jobs done with the one-shot digest ({len(bad)} not; first {bad[:1]})")
    print("serve_smoke: all checks passed")


if __name__ == "__main__":
    main()
