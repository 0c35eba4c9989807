#pragma once

namespace tamper::fleet {
bool route_to(int pop);
}  // namespace tamper::fleet
