// Versioned dynamic entity (the paper's entity bean + VersionedEntity).
//
// Every set-attribute bumps the version.  getEstimatedLatestVersion()
// implements the freshness heuristic of Section 4.2.1: when an object is
// known to be updated about every `expected_update_period`, the estimated
// latest version grows with elapsed virtual time even while no updates
// arrive — the gap to the actual version feeds static threat negotiation.
#pragma once

#include <cstdint>
#include <string>
#include <utility>

#include "objects/class_descriptor.h"
#include "objects/value.h"
#include "util/errors.h"
#include "util/ids.h"
#include "util/sim_clock.h"

namespace dedisys {

/// A snapshot of entity state, used for update propagation, replica
/// history and rollback during reconciliation.
struct EntitySnapshot {
  ObjectId id;
  std::string class_name;
  std::uint64_t version = 0;
  AttributeMap attributes;
};

class Entity {
 public:
  Entity(ObjectId id, const ClassDescriptor& cls)
      : id_(id), cls_(&cls), attrs_(cls.default_attributes()) {}

  [[nodiscard]] ObjectId id() const { return id_; }
  [[nodiscard]] const ClassDescriptor& cls() const { return *cls_; }

  // -- attribute access -----------------------------------------------------

  [[nodiscard]] const Value& get(const std::string& attr) const {
    auto it = attrs_.find(attr);
    if (it == attrs_.end()) {
      throw ConfigError("class " + cls_->name() + " has no attribute " + attr);
    }
    return it->second;
  }

  /// Writes an attribute and bumps the entity version.
  void set(const std::string& attr, Value value) {
    auto it = attrs_.find(attr);
    if (it == attrs_.end()) {
      throw ConfigError("class " + cls_->name() + " has no attribute " + attr);
    }
    it->second = std::move(value);
    ++version_;
  }

  /// Records the virtual time of the most recent update (stamped by the
  /// middleware after successful writes; feeds version estimation).
  void touch(SimTime now) { last_update_ = now; }

  [[nodiscard]] const AttributeMap& attributes() const { return attrs_; }

  // -- VersionedEntity (Fig. 4.3) -------------------------------------------

  [[nodiscard]] std::uint64_t version() const { return version_; }

  /// Expected update cadence; 0 disables estimation.
  void set_expected_update_period(SimDuration period) {
    expected_update_period_ = period;
  }

  /// Version the object would be expected to have at virtual time `now`.
  [[nodiscard]] std::uint64_t estimated_latest_version(SimTime now) const {
    if (expected_update_period_ <= 0 || now <= last_update_) return version_;
    return version_ + static_cast<std::uint64_t>((now - last_update_) /
                                                 expected_update_period_);
  }

  // -- snapshot / restore -----------------------------------------------------

  [[nodiscard]] EntitySnapshot snapshot() const {
    return EntitySnapshot{id_, cls_->name(), version_, attrs_};
  }

  /// Restores state from a snapshot (update propagation, rollback).
  void restore(const EntitySnapshot& snap) {
    attrs_ = snap.attributes;
    version_ = snap.version;
  }

 private:
  ObjectId id_;
  const ClassDescriptor* cls_;
  AttributeMap attrs_;
  std::uint64_t version_ = 0;
  SimTime last_update_ = 0;
  SimDuration expected_update_period_ = 0;
};

}  // namespace dedisys
