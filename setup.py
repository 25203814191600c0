"""Packaging metadata (kept in setup.py; ``pyproject.toml`` carries tool config).

setup.py rather than PEP 621 so the package installs editable in fully
offline environments where the ``wheel`` package (needed by the PEP 660
editable build hooks) is unavailable:

    pip install -e . --no-build-isolation --no-use-pep517

Optional extras — the core install depends on numpy only, and never imports
an extra's packages at module scope (CI's no-extras smoke job enforces this):

    ========== ===================================== ==========================
    extra      enables                               pulls in
    ========== ===================================== ==========================
    server     the FastAPI app factory + uvicorn     fastapi, uvicorn
               deployment path of ``repro serve``
               (the stdlib HTTP fallback runs
               without it)
    ========== ===================================== ==========================
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="0.9.0",
    description=(
        "Reproduction of group low-rank compression for in-memory computing: "
        "experiment engine, artifact store, parallel sweeps and HTTP service"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=["numpy>=1.24"],
    extras_require={
        # The HTTP experiment service (repro.server) runs without these —
        # `repro serve` falls back to a stdlib HTTP server — but the FastAPI
        # app factory and uvicorn deployment path need them:
        #     pip install 'repro[server]'
        "server": ["fastapi>=0.100", "uvicorn>=0.23"],
    },
    entry_points={"console_scripts": ["repro = repro.cli:main"]},
)
