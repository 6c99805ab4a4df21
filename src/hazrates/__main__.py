"""``python -m hazrates``: the same command line as the ``hazrates`` script."""

from .cli import entry_point

if __name__ == "__main__":
    entry_point()
