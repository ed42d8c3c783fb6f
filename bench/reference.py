"""Reference task: a fixed amount of pure-Python work that does not use hsagg.

    python bench/reference.py

A run times this process between the workload's commands and reports the
commands' time in units of the reference's fastest run.  The speed of a
shared host drifts by a third within a minute, and both sides of the ratio
drift with it, so the ratio holds still where seconds do not.  The mix is
the kind of work the commands do: modular arithmetic over short integer
lists, tuples as dictionary keys, and an interpreter start.  Changing this
file changes the unit of the benchmark's time metrics.
"""

ROUNDS = 40000
Q = 101


def main() -> None:
    counts: dict[tuple, int] = {}
    acc = 0
    for i in range(ROUNDS):
        row = [(i * j + 7) % Q for j in range(8)]
        key = tuple(row[:3])
        counts[key] = counts.get(key, 0) + 1
        acc = (acc + sum(x * y for x, y in zip(row, row[1:]))) % Q
    print(acc, len(counts))


if __name__ == "__main__":
    main()
