"""Package metadata, kept in a plain setuptools script.

Without the ``wheel`` package, PEP 517 editable installs
(`pip install -e .` with a build-system table) cannot build an editable
wheel, so the repository has no ``pyproject.toml``: pip falls back to
the legacy ``setup.py develop`` code path, which needs only setuptools.
All the package metadata lives here.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.1.0",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy>=2.0"],
    entry_points={
        "console_scripts": [
            "repro = repro.cli:main",
        ],
    },
)
