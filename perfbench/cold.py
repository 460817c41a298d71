"""Run the whole pipeline into an empty cache, serving pages from memory.

Usage: python cold.py --origin DIR --cache-dir DIR --out DIR --max-pages N

``--origin`` holds pages in the cache layout (``recall/<i>.json``,
``classification/<i>.json``). They are loaded before the pipeline starts and
handed to ``stages.pipeline_stage`` through its transport argument, so the
client's page and manifest write path runs without a network.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

NOT_FOUND = b'{"error": {"code": "NOT_FOUND", "message": "No matches found!"}}'


def memory_transport(origin: Path):
    pages = {
        (endpoint, int(p.stem)): p.read_bytes()
        for endpoint in ("recall", "classification")
        for p in (origin / endpoint).glob("*.json")
        if p.stem.isdigit()
    }

    def get(url: str, params: dict, timeout: float) -> tuple[int, bytes]:
        endpoint = "classification" if "classification" in url else "recall"
        body = pages.get((endpoint, int(params["skip"]) // int(params["limit"])))
        return (200, body) if body is not None else (404, NOT_FOUND)

    return get


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--origin", type=Path, required=True)
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--max-pages", type=int, required=True)
    args = parser.parse_args(argv)

    from recallscan import stages

    get = memory_transport(args.origin)
    cfg = stages.PipelineConfig(cache_dir=args.cache_dir, out=args.out, max_pages=args.max_pages)
    stages.echo_config(cfg)
    print(stages.pipeline_stage(cfg, get=get))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
