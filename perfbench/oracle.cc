#include "perfbench/oracle.h"

#include <algorithm>

namespace perfbench {

std::string ModeText(uint32_t modes) {
  static const char* const kNames[] = {"read",   "write",        "write-append", "execute",
                                       "extend", "administrate", "delete",       "list"};
  std::string out;
  for (int i = 0; i < 8; ++i) {
    if (modes & (1u << i)) {
      if (!out.empty()) {
        out += '|';
      }
      out += kNames[i];
    }
  }
  return out.empty() ? "-" : out;
}

const char* KindText(Kind kind) {
  switch (kind) {
    case Kind::kDirectory:
      return "directory";
    case Kind::kService:
      return "service";
    case Kind::kInterface:
      return "interface";
    case Kind::kProcedure:
      return "procedure";
    case Kind::kFile:
      return "file";
  }
  return "?";
}

const char* WhyText(Why why) {
  switch (why) {
    case Why::kAllowed:
      return "allowed";
    case Why::kTraversal:
      return "traversal";
    case Why::kDacExplicitDeny:
      return "dac-explicit-deny";
    case Why::kDacNoGrant:
      return "dac-no-grant";
    case Why::kMacFlow:
      return "mac-flow";
  }
  return "?";
}

void Model::Finish() {
  const size_t n = principals.size();
  const size_t words = (n + 63) / 64;
  closure_.assign(n, std::vector<uint64_t>(words, 0));
  for (uint32_t p = 0; p < n; ++p) {
    std::vector<uint32_t> stack{p};
    std::vector<uint64_t>& bits = closure_[p];
    while (!stack.empty()) {
      uint32_t cur = stack.back();
      stack.pop_back();
      if ((bits[cur / 64] >> (cur % 64)) & 1) {
        continue;
      }
      bits[cur / 64] |= uint64_t{1} << (cur % 64);
      for (uint32_t parent : principals[cur].member_of) {
        stack.push_back(parent);
      }
    }
  }
}

namespace {

// The paper's flow rules (§2.2), one mode at a time: observation needs the
// subject to dominate the object, append needs the object to dominate the
// subject, destructive writes and administration need both.
bool FlowAllows(const Cls& s, const Cls& o, uint32_t mode) {
  switch (mode) {
    case kRead:
    case kList:
    case kExecute:
    case kExtend:
      return s.Dominates(o);
    case kWriteAppend:
      return o.Dominates(s);
    default:  // write, delete, administrate
      return s.Dominates(o) && o.Dominates(s);
  }
}

}  // namespace

Verdict Model::Decide(uint32_t principal, const Cls& cls, uint32_t node, uint32_t modes) const {
  uint32_t dac_modes = modes;
  if (principal == nodes[node].owner) {
    dac_modes &= ~uint32_t{kAdministrate};
  }
  if (dac_modes != 0) {
    int32_t at = static_cast<int32_t>(node);
    while (at >= 0 && !nodes[at].has_acl) {
      at = nodes[at].parent;
    }
    if (at < 0) {
      return {false, Why::kDacNoGrant};
    }
    uint32_t allowed = 0;
    uint32_t denied = 0;
    for (const AclEntrySpec& e : nodes[at].acl) {
      if (InClosure(principal, e.who)) {
        (e.deny ? denied : allowed) |= e.modes;
      }
    }
    if (denied & dac_modes) {
      return {false, Why::kDacExplicitDeny};
    }
    if ((allowed & dac_modes) != dac_modes) {
      return {false, Why::kDacNoGrant};
    }
  }
  int32_t at = static_cast<int32_t>(node);
  while (at >= 0 && !nodes[at].has_label) {
    at = nodes[at].parent;
  }
  Cls label = at >= 0 ? nodes[at].label : Cls{};
  for (uint32_t bit = 1; bit <= kList; bit <<= 1) {
    if ((modes & bit) && !FlowAllows(cls, label, bit)) {
      return {false, Why::kMacFlow};
    }
  }
  return {true, Why::kAllowed};
}

std::vector<uint32_t> Model::AncestorsOf(uint32_t node) const {
  std::vector<uint32_t> chain;
  for (int32_t at = nodes[node].parent; at >= 0; at = nodes[at].parent) {
    chain.push_back(static_cast<uint32_t>(at));
  }
  std::reverse(chain.begin(), chain.end());
  return chain;
}

Verdict Model::DecidePath(uint32_t principal, const Cls& cls, uint32_t node,
                          uint32_t modes) const {
  for (uint32_t ancestor : AncestorsOf(node)) {
    if (!Decide(principal, cls, ancestor, kList).allowed) {
      return {false, Why::kTraversal};
    }
  }
  return Decide(principal, cls, node, modes);
}

bool Model::Select(uint32_t iface, const Cls& caller, int64_t* tag) const {
  const HandlerSpec* best = nullptr;
  for (const HandlerSpec& h : handlers[iface]) {
    if (caller.Dominates(h.cls) && (best == nullptr || h.cls.level > best->cls.level)) {
      best = &h;
    }
  }
  if (best == nullptr) {
    return false;
  }
  *tag = best->tag;
  return true;
}

}  // namespace perfbench
