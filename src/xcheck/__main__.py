"""``python -m xcheck``: the same entry point as the ``xcheck`` script."""

from .cli import main

if __name__ == "__main__":
    main()
