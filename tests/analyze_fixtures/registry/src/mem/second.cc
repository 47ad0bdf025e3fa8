#include "base/fault.hh"

namespace cosim {

int
secondUser()
{
    return faultPending("dup.site") ? 1 : 0;
}

} // namespace cosim
