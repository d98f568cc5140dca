#include "scan/scope.hpp"  // IWYU pragma: export
