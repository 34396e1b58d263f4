// SetCache: the cache slot of one set (Value::set_cache).
//
// It holds what readers derive from a set's elements: the set's columnar
// page (relational/columnar.h), or the fact that the set is not flat, and
// the matcher's per-attribute equality indexes (eval/matcher.cc). Each is
// built on first use and immutable once built. The slot follows the set's
// value, not its address (the object model has no object identity, paper
// §3): a copy of a set shares the slot the set has — same elements in the
// same order, which is all a page or a position list describes — and every
// mutable set accessor detaches it (object/value.h, "Mutation
// discipline").
//
// Thread safety: many threads may fill and read one slot at once (readers
// of one server epoch, the view engine's workers). Builds are serialized by
// a mutex; a finished page or index is published with release/acquire
// atomics and read without a lock.

#ifndef IDL_OBJECT_SET_CACHE_H_
#define IDL_OBJECT_SET_CACHE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace idl {

class ColumnarRelation;

class SetCache {
 public:
  using Page = std::shared_ptr<const ColumnarRelation>;
  // Element positions by the hash of one attribute's value; every position
  // list is ascending.
  using AttrIndex = std::unordered_map<uint64_t, std::vector<uint32_t>>;

  // The set's page, nullptr when the set is not flat. `build` runs on the
  // first request only.
  Page GetPage(const std::function<Page()>& build) {
    if (!page_built_.load(std::memory_order_acquire)) {
      std::lock_guard<std::mutex> lock(build_mu_);
      if (!page_built_.load(std::memory_order_relaxed)) {
        page_ = build();
        page_built_.store(true, std::memory_order_release);
      }
    }
    return page_;
  }

  // The equality index over `attr`. `build` runs on the first request for
  // that attribute; `*built` says whether this call ran it.
  const AttrIndex& GetIndex(std::string_view attr,
                            const std::function<AttrIndex()>& build,
                            bool* built) {
    *built = false;
    if (const AttrIndex* index = FindIndex(attr)) return *index;
    std::lock_guard<std::mutex> lock(build_mu_);
    if (const AttrIndex* index = FindIndex(attr)) return *index;
    auto* node = new IndexNode{std::string(attr), build(),
                               indexes_.load(std::memory_order_relaxed)};
    indexes_.store(node, std::memory_order_release);
    *built = true;
    return node->index;
  }

 private:
  friend class Value;  // counts the sets sharing the slot

  struct IndexNode {
    std::string attr;
    AttrIndex index;
    const IndexNode* next;
  };

  ~SetCache() {
    for (const IndexNode* node = indexes_.load(std::memory_order_relaxed);
         node != nullptr;) {
      const IndexNode* next = node->next;
      delete node;
      node = next;
    }
  }
  void Retain() { refs_.fetch_add(1, std::memory_order_relaxed); }
  void Release() {
    if (refs_.fetch_sub(1, std::memory_order_acq_rel) == 1) delete this;
  }
  const AttrIndex* FindIndex(std::string_view attr) const {
    for (const IndexNode* node = indexes_.load(std::memory_order_acquire);
         node != nullptr; node = node->next) {
      if (node->attr == attr) return &node->index;
    }
    return nullptr;
  }

  std::atomic<uint32_t> refs_{1};
  std::mutex build_mu_;
  std::atomic<bool> page_built_{false};
  Page page_;  // written once, before page_built_ is set
  // Push-front list: a node is immutable once published.
  std::atomic<const IndexNode*> indexes_{nullptr};
};

}  // namespace idl

#endif  // IDL_OBJECT_SET_CACHE_H_
