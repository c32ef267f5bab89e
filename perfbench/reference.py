"""Fixed reference work that measures how fast the machine is right now.

It imports no crpo code, so a change to crpo never changes its time.  The
benchmark runs it as a fresh process before and after every timed job and
scales the job's wall time by it (see run.py), so a machine that runs
slower for a few minutes does not read as a slower crpo.  Its mix follows
the work of crpo's commands: interpreter start-up and numpy import, JSON
records turned into objects, character n-gram counting, and small numpy
array updates.
"""

import json
from collections import Counter

import numpy as np


def main() -> None:
    rng = np.random.default_rng(0)
    words = [f"w{i:03d}" for i in range(500)]
    lines = [
        json.dumps({"id": f"c{i:05d}", "text": " ".join(words[j] for j in rng.integers(500, size=20)),
                    "logprob": -float(x), "rewards": {"a": float(x), "b": float(x) / 2}})
        for i, x in enumerate(rng.random(3000))
    ]
    records = sorted((json.loads(line) for line in lines), key=lambda r: r["logprob"])
    texts = ["".join(r["text"].split()) for r in records[:200]]
    grams = [Counter(t[i : i + n] for n in range(1, 7) for i in range(len(t) - n + 1)) for t in texts]
    common = sum(sum((grams[i] & grams[i + 1]).values()) for i in range(len(grams) - 1))
    table = rng.random((200, 64))
    for _ in range(150):
        p = np.exp(table - table.max(axis=1, keepdims=True))
        table = table - 0.1 * p / p.sum(axis=1, keepdims=True)
    if common <= 0 or not np.isfinite(table).all():
        raise SystemExit("reference work went wrong")


if __name__ == "__main__":
    main()
