// The metric record of one evaluation: named doubles ("ber", "area_mm2",
// ...) held as one name-sorted vector instead of a tree of nodes. The
// order is std::map<std::string, double>'s (byte-wise name order), so
// every writer that iterates a record emits the bytes it always did,
// while a lookup is a binary search over a few contiguous entries and a
// copy is one allocation for the entries (plus any names too long for the
// small-string buffer). Header-only: robust/ uses the search types
// without linking the search library.
#pragma once

#include <algorithm>
#include <cstddef>
#include <initializer_list>
#include <iterator>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace metacore::search {

class MetricMap {
 public:
  using value_type = std::pair<std::string, double>;
  using container_type = std::vector<value_type>;
  using iterator = container_type::iterator;
  using const_iterator = container_type::const_iterator;
  using size_type = std::size_t;

  /// How build() resolves a name given more than once: KeepFirst is
  /// emplace's rule (and std::map's insert), KeepLast is operator[]
  /// assignment's.
  enum class Duplicates { KeepFirst, KeepLast };

  MetricMap() = default;
  /// A repeated name keeps its first value, as in std::map.
  MetricMap(std::initializer_list<value_type> init)
      : MetricMap(build(container_type(init), Duplicates::KeepFirst)) {}

  /// Builds a record from entries in any order with one stable sort and
  /// one dedupe pass: O(n log n) however hostile the input, where
  /// inserting one by one would be O(n^2).
  static MetricMap build(container_type entries, Duplicates duplicates) {
    const auto name_less = [](const value_type& a, const value_type& b) {
      return a.first < b.first;
    };
    const auto not_ascending = [](const value_type& a, const value_type& b) {
      return !(a.first < b.first);
    };
    if (std::adjacent_find(entries.begin(), entries.end(), not_ascending) !=
        entries.end()) {
      // Stable, so equal names keep their input order and "first" and
      // "last" mean what they meant in the input.
      std::stable_sort(entries.begin(), entries.end(), name_less);
      auto kept = entries.begin();
      for (auto run = entries.begin(); run != entries.end();) {
        auto run_end = std::next(run);
        while (run_end != entries.end() && run_end->first == run->first) {
          ++run_end;
        }
        const auto keep =
            duplicates == Duplicates::KeepFirst ? run : std::prev(run_end);
        if (kept != keep) *kept = std::move(*keep);
        ++kept;
        run = run_end;
      }
      entries.erase(kept, entries.end());
    }
    MetricMap out;
    out.entries_ = std::move(entries);
    return out;
  }

  iterator begin() noexcept { return entries_.begin(); }
  iterator end() noexcept { return entries_.end(); }
  const_iterator begin() const noexcept { return entries_.begin(); }
  const_iterator end() const noexcept { return entries_.end(); }
  size_type size() const noexcept { return entries_.size(); }
  bool empty() const noexcept { return entries_.empty(); }
  void reserve(size_type n) { entries_.reserve(n); }

  iterator find(std::string_view name) {
    const auto it = lower_bound(name);
    return it != end() && it->first == name ? it : end();
  }
  const_iterator find(std::string_view name) const {
    const auto it = lower_bound(name);
    return it != end() && it->first == name ? it : end();
  }
  size_type count(std::string_view name) const {
    return find(name) == end() ? 0 : 1;
  }
  /// Throws std::out_of_range when `name` is absent.
  double& at(std::string_view name) {
    const auto it = find(name);
    if (it == end()) throw_missing(name);
    return it->second;
  }
  const double& at(std::string_view name) const {
    const auto it = find(name);
    if (it == end()) throw_missing(name);
    return it->second;
  }

  /// The value under `name`, inserted as 0.0 when absent.
  double& operator[](std::string_view name) {
    return emplace(name, 0.0).first->second;
  }
  /// Inserts (name, value) unless `name` is held; the held value wins.
  std::pair<iterator, bool> emplace(std::string_view name, double value) {
    const auto it = lower_bound(name);
    if (it != end() && it->first == name) return {it, false};
    return {entries_.emplace(it, std::string(name), value), true};
  }
  /// emplace() that first tries the slot just before `hint`, as
  /// std::map::emplace_hint does; returns the element under `name`. With
  /// end() as the hint, copying a record in name order is one append per
  /// metric.
  iterator emplace_hint(const_iterator hint, std::string_view name,
                        double value) {
    if ((hint == end() || name < hint->first) &&
        (hint == begin() || std::prev(hint)->first < name)) {
      return entries_.emplace(hint, std::string(name), value);
    }
    return emplace(name, value).first;
  }

  iterator erase(const_iterator it) { return entries_.erase(it); }

  friend bool operator==(const MetricMap&, const MetricMap&) = default;

 private:
  static bool name_before(const value_type& e, std::string_view name) {
    return e.first < name;
  }
  iterator lower_bound(std::string_view name) {
    return std::lower_bound(begin(), end(), name, name_before);
  }
  const_iterator lower_bound(std::string_view name) const {
    return std::lower_bound(begin(), end(), name, name_before);
  }
  [[noreturn]] static void throw_missing(std::string_view name) {
    throw std::out_of_range("MetricMap: no metric '" + std::string(name) +
                            "'");
  }

  container_type entries_;  ///< strictly ascending names
};

}  // namespace metacore::search
