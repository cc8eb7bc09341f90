"""``python -m medlattice``: the benchmark CLI of ``medlattice.experiment``."""

from .experiment import main

if __name__ == "__main__":
    raise SystemExit(main())
