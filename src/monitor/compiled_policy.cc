#include "src/monitor/compiled_policy.h"

#include "src/base/failpoint.h"
#include "src/base/strings.h"
#include "src/monitor/reference_monitor.h"

namespace xsec {

StatusOr<std::shared_ptr<const CompiledPolicy>> CompiledPolicy::Build(
    const NameSpace& name_space, const AclStore& acls, const PrincipalRegistry& principals,
    const LabelAuthority& labels, const CompiledPolicyConfig& config,
    const ShardStampSet& stamps, const std::vector<SecurityClass>& extra_classes) {
  // Fault-injection hook for the recompile path: an injected failure here
  // must degrade to "stay interpreted", never to a wrong decision — the
  // differential fuzzer arms this under its fault sweep.
  XSEC_FAILPOINT("monitor.recompile");

  std::shared_ptr<CompiledPolicy> cp(new CompiledPolicy());
  cp->stamps_ = stamps;
  cp->config_ = config;
  cp->principal_count_ = principals.principal_count();

  if (config.dac_enabled) {
    const size_t acl_count = acls.size();
    const size_t cells = (acl_count + 1) * cp->principal_count_;
    if (cells > config.max_dac_cells) {
      return ResourceExhaustedError(
          StrFormat("compiled DAC table would need %zu cells (cap %zu)", cells,
                    config.max_dac_cells));
    }
    // Closures are cached inside the registry, but hoist the handles so each
    // is fetched once, not once per ACL.
    std::vector<std::shared_ptr<const DynamicBitset>> closures(cp->principal_count_);
    for (size_t p = 0; p < cp->principal_count_; ++p) {
      closures[p] = principals.Closure(PrincipalId{static_cast<uint32_t>(p)});
    }
    cp->dac_ = PageArray<uint16_t>(cells);
    Acl acl;
    for (size_t a = 0; a < acl_count; ++a) {
      if (!acls.CopyAcl(static_cast<AclStore::AclRef>(a), &acl)) {
        continue;  // row stays all-zero, like an empty ACL
      }
      uint16_t* row = cp->dac_.data() + a * cp->principal_count_;
      for (const AclEntry& entry : acl.entries()) {
        const uint16_t bits = entry.type == AclEntryType::kAllow
                                  ? static_cast<uint16_t>(entry.modes.bits())
                                  : static_cast<uint16_t>(entry.modes.bits() << 8);
        for (size_t p = 0; p < cp->principal_count_; ++p) {
          if (closures[p]->Test(entry.who.value)) {
            row[p] |= bits;
          }
        }
      }
    }
    // Row acl_count stays all-zero: dangling refs evaluate like an empty ACL.
  }

  if (config.mac_enabled) {
    cp->matrix_ = labels.CompileDominance(config.max_classes, extra_classes);
    if (cp->matrix_ == nullptr) {
      return ResourceExhaustedError(
          StrFormat("distinct security classes exceed compiled cap %zu", config.max_classes));
    }
    const size_t n = cp->matrix_->size();
    cp->mac_mask_.assign(n * n, 0);
    for (size_t s = 0; s < n; ++s) {
      for (size_t o = 0; o < n; ++o) {
        cp->mac_mask_[s * n + o] = static_cast<uint8_t>(
            FlowAllowedMask(cp->matrix_->Dominates(s, o), cp->matrix_->Dominates(o, s),
                            config.flow)
                .bits());
      }
    }
  }

  const size_t node_count = name_space.node_count();
  const size_t acl_count = acls.size();
  cp->nodes_.resize(node_count);
  for (size_t i = 0; i < node_count; ++i) {
    NodeEntry& entry = cp->nodes_[i];
    NameSpace::SecuritySnapshot snap;
    if (!name_space.SnapshotSecurity(NodeId{static_cast<uint32_t>(i)}, &snap)) {
      continue;  // dead node: !alive decides kNotFound, same as interpreted
    }
    entry.alive = true;
    entry.owner = snap.owner;
    if (snap.effective_acl_ref == kNoRef) {
      entry.dac_row = kNoAcl;
    } else if (snap.effective_acl_ref < acl_count) {
      entry.dac_row = snap.effective_acl_ref;
    } else {
      entry.dac_row = static_cast<uint32_t>(acl_count);  // dangling: zero row
    }
    if (config.mac_enabled) {
      std::shared_ptr<const SecurityClass> handle =
          snap.effective_label_ref != kNoRef ? labels.LabelHandle(snap.effective_label_ref)
                                             : nullptr;
      // The interpreted path substitutes a default-constructed (⊥-shaped)
      // class for a missing label; ⊥ is always seeded into the matrix and
      // class equality ignores bitset capacity, so IdOf finds it.
      const SecurityClass fallback;
      entry.label_id = cp->matrix_->IdOf(handle ? *handle : fallback);
    }
  }

  return std::shared_ptr<const CompiledPolicy>(std::move(cp));
}

bool CompiledPolicy::Evaluate(const Subject& subject, NodeId node, AccessModeSet modes,
                              const LabelAuthority& labels, Decision* out) const {
  // A node id beyond the compiled width cannot exist while the stamp vector
  // is valid (Bind bumps the namespace generation), so it is decided, not a
  // fallback. NodeId::kInvalid lands here too.
  if (node.value >= nodes_.size() || !nodes_[node.value].alive) {
    *out = Decision{false, DenyReason::kNotFound, "node does not exist"};
    return true;
  }
  const NodeEntry& entry = nodes_[node.value];

  if (config_.dac_enabled) {
    AccessModeSet dac_modes = modes;
    if (subject.principal == entry.owner) {
      dac_modes = dac_modes - AccessModeSet(AccessMode::kAdministrate);
    }
    if (!dac_modes.empty()) {
      if (entry.dac_row == kNoAcl) {
        *out = Decision{false, DenyReason::kDacNoGrant, "no ACL grants this access"};
        return true;
      }
      if (subject.principal.value >= principal_count_) {
        // Created after the compile (CreateUser bumps no stamp): no row.
        return false;
      }
      const uint16_t cell = dac_[entry.dac_row * principal_count_ + subject.principal.value];
      const uint32_t allowed = cell & 0xffu;
      const uint32_t denied = cell >> 8;
      if ((denied & dac_modes.bits()) != 0) {
        *out = Decision{false, DenyReason::kDacExplicitDeny, "matched a negative ACL entry"};
        return true;
      }
      if ((dac_modes.bits() & ~allowed) != 0) {
        *out = Decision{false, DenyReason::kDacNoGrant, "no ACL entry grants this access"};
        return true;
      }
    }
  }

  if (config_.mac_enabled) {
    if (entry.label_id == kNoLabel) {
      return false;
    }
    const int32_t sid = matrix_->IdOf(subject.security_class);
    if (sid < 0) {
      return false;  // class not interned; the monitor queues it for the next compile
    }
    const size_t n = matrix_->size();
    const uint8_t mask = mac_mask_[static_cast<size_t>(sid) * n + entry.label_id];
    // MAC examines the ORIGINAL request, including an administrate bit the
    // owner carve-out removed from the DAC set — same as the interpreted
    // path.
    const uint32_t violating = modes.bits() & ~static_cast<uint32_t>(mask);
    if (violating != 0) {
      // Lowest violating bit, matching FlowPolicy::Check's reported mode.
      const AccessMode mode = static_cast<AccessMode>(violating & (~violating + 1));
      // Format from the interned label (lattice-equal to the stored one, so
      // ClassToString renders identically) and the subject's own class.
      *out = Decision{
          false, DenyReason::kMacFlow,
          StrFormat("%s of %s by subject at %s violates information flow",
                    std::string(AccessModeName(mode)).c_str(),
                    labels.ClassToString(matrix_->classes()[entry.label_id]).c_str(),
                    labels.ClassToString(subject.security_class).c_str())};
      return true;
    }
  }

  *out = Decision{true, DenyReason::kNone, ""};
  return true;
}

size_t CompiledPolicy::table_bytes() const {
  return nodes_.size() * sizeof(NodeEntry) + dac_.size() * sizeof(uint16_t) +
         mac_mask_.size() * sizeof(uint8_t);
}

}  // namespace xsec
