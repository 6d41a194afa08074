"""Setup script for the HyPar reproduction.

A classic setuptools script (rather than a PEP 517 pyproject build) is used
deliberately so that ``pip install -e .`` works in fully offline
environments that lack the ``wheel`` package and cannot reach PyPI for
build isolation.
"""

from setuptools import find_packages, setup


def _read_readme() -> str:
    try:
        with open("README.md", encoding="utf-8") as handle:
            return handle.read()
    except OSError:
        return ""


setup(
    name="repro",
    version="1.0.0",
    description=(
        "Reproduction of HyPar: Towards Hybrid Parallelism for Deep Learning "
        "Accelerator Array (HPCA 2019)"
    ),
    long_description=_read_readme(),
    long_description_content_type="text/markdown",
    author="HyPar Reproduction Authors",
    license="MIT",
    # Matches the CI matrix (3.11/3.12) and the pinned numpy in
    # requirements-ci.txt; older interpreters are untested.
    python_requires=">=3.11",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    # The shipped cost-model profile packs (repro/core/profiles/*.json)
    # must travel with the package for `--cost-model profiled:<pack>`.
    package_data={"repro.core": ["profiles/*.json"]},
    include_package_data=True,
    install_requires=["numpy"],
    extras_require={
        # networkx is the oracle the topology tests check the closed-form
        # hop counts and routes against; the package itself never imports it.
        "test": ["pytest", "pytest-benchmark", "hypothesis", "scipy", "networkx"],
    },
    entry_points={
        "console_scripts": [
            "hypar = repro.cli:main",
        ],
    },
    classifiers=[
        "Programming Language :: Python :: 3",
        "Topic :: Scientific/Engineering",
        "Intended Audience :: Science/Research",
    ],
    keywords=(
        "deep-learning accelerator parallelism hybrid-parallelism dnn-training "
        "architecture-simulation"
    ),
)
