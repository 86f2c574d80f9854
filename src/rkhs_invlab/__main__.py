"""``python -m rkhs_invlab``: the same command line as ``rkhs-invlab``."""

from .cli import app

if __name__ == "__main__":
    app()
