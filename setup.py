"""Package metadata and a legacy setup shim.

All metadata lives here.  PEP 517 editable installs build a wheel, which
needs the ``wheel`` package; where that is unavailable,
``pip install -e . --no-build-isolation --no-use-pep517`` falls back to the
classic ``setup.py develop`` path.

numpy is a hard dependency: the simulator's seeded RNG, the burst
engine's stacked checksum pass and the streaming aggregates all import
it unconditionally.  Python 3.11 is
the floor because the chaos-plan and population-spec loaders import
``tomllib``.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.11",
    install_requires=["numpy"],
)
