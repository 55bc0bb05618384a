#include "sim/kind.hpp"

#include <stdexcept>

namespace dmx::sim {

template <typename F>
auto KindTable::read(F f) const {
  if (frozen()) return f();
  std::lock_guard<std::mutex> lock(mu_);
  return f();
}

std::uint16_t KindTable::intern(std::string_view name,
                                std::string_view category) {
  if (name.empty()) {
    throw std::invalid_argument("kind registry: empty " + std::string(noun_) +
                                " name");
  }
  if (frozen()) {
    // Sealed: known names resolve without the lock (the table is immutable
    // and was release-published by freeze()); a new name is a registration
    // that arrived too late, so fail fast instead of racing.
    if (auto it = by_name_.find(name); it != by_name_.end()) return it->second;
    throw std::logic_error("kind registry: frozen; cannot intern new " +
                           std::string(noun_) + " name \"" +
                           std::string(name) + "\"");
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (auto it = by_name_.find(name); it != by_name_.end()) return it->second;
  if (entries_.size() >= kInvalid) {
    throw std::length_error("kind registry: " + std::string(noun_) +
                            " kind space exhausted");
  }
  const auto raw = static_cast<std::uint16_t>(entries_.size());
  entries_.push_back(Entry{std::string(name), std::string(category)});
  by_name_.emplace(entries_.back().name, raw);
  return raw;
}

std::uint16_t KindTable::find(std::string_view name) const {
  return read([&] {
    const auto it = by_name_.find(name);
    return it != by_name_.end() ? it->second : kInvalid;
  });
}

std::string_view KindTable::name(std::uint16_t raw) const {
  return read([&]() -> std::string_view {
    if (raw >= entries_.size()) return "<invalid>";
    return entries_[raw].name;
  });
}

std::string_view KindTable::category(std::uint16_t raw) const {
  return read([&]() -> std::string_view {
    if (raw >= entries_.size()) return "";
    return entries_[raw].category;
  });
}

std::size_t KindTable::size() const {
  return read([&] { return entries_.size(); });
}

std::vector<std::string> KindTable::names() const {
  return read([&] {
    std::vector<std::string> out;
    out.reserve(entries_.size());
    for (const Entry& e : entries_) out.push_back(e.name);
    return out;
  });
}

void KindTable::freeze() {
  // The lock orders this against any in-flight intern; the release store
  // publishes the completed table to lock-free readers.
  std::lock_guard<std::mutex> lock(mu_);
  frozen_.store(true, std::memory_order_release);
}

}  // namespace dmx::sim
