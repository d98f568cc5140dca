#include "bgp/rib.hpp"  // IWYU pragma: export
