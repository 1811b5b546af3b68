"""Package metadata for ``pip install -e .``.

The offline environment ships setuptools 65.5 without the ``wheel``
package, so PEP 660 editable installs fail and pip falls back to this
file; there is no pyproject.toml, so all metadata lives here.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Reproduction of Predict and Write: K-Means-steered writes that "
        "extend the lifetime of NVM key/value storage"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.11",
    install_requires=["numpy"],
)
