"""``python -m benchmarks.e2e``; see :mod:`benchmarks.e2e.ledger`."""

from benchmarks.e2e.ledger import main

if __name__ == "__main__":
    raise SystemExit(main())
