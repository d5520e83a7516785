#include "mc/por/reduction.h"

namespace nicemc::mc {

std::string reduction_name(Reduction r) {
  switch (r) {
    case Reduction::kNone:
      return "NONE";
    case Reduction::kSleep:
      return "SLEEP";
  }
  return "?";
}

}  // namespace nicemc::mc
