#include "ftmc/common/contracts.hpp"

#include <sstream>
#include <string_view>

namespace ftmc::detail {

void contract_failed(const char* expr, const char* file, int line,
                     const std::string& message) {
  // __FILE__ is the path the build compiled, so name the file relative to
  // the repository root: a message quoting it (a serve answer, say) then
  // reads the same from every checkout.
  std::string_view where = file;
  if (where.starts_with(FTMC_SOURCE_ROOT)) {
    where.remove_prefix(std::string_view(FTMC_SOURCE_ROOT).size());
  }
  std::ostringstream os;
  os << "FTMC contract violation: " << message << " [" << expr << "] at "
     << where << ":" << line;
  throw ContractViolation(os.str());
}

}  // namespace ftmc::detail
