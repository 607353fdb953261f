import pytest

from faasim import catalog as cat


@pytest.fixture(scope="session")
def default_catalog() -> cat.ServiceCatalog:
    return cat.load_catalog(cat.default_catalog_path())
