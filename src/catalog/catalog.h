// Catalog reification: derives a first-order-queryable catalog database
// from a universe — metadata *as data*.
//
// This serves two purposes:
//  * it is the direction §8 sketches (extending the reasoning to "other
//    schematic information such as types, keys") — the catalog carries
//    arity and inferred attribute kinds;
//  * it is the classic first-order *workaround* for metadata queries
//    (reify names into a system table, then query it with plain Datalog),
//    which bench_ablation_catalog compares against genuine higher-order
//    queries. The workaround answers "what exists" but still cannot join
//    names against data in one query, and it goes stale the moment the
//    universe changes — both measured.
//
// Shape of the derived database:
//   databases  : {(db: euter), ...}
//   relations  : {(db: euter, rel: r, arity: 3, cardinality: 12), ...}
//   attributes : {(db: euter, rel: r, attr: clsPrice, kind: "int"), ...}
// `arity` is the attribute-union size (relations may be heterogeneous);
// `kind` is the kind of the first non-null value seen.

#ifndef IDL_CATALOG_CATALOG_H_
#define IDL_CATALOG_CATALOG_H_

#include "common/result.h"
#include "object/value.h"

namespace idl {

// Builds the catalog database object for `universe`. Databases whose value
// is not a tuple, or relations that are not sets, are skipped (the catalog
// describes whatever is relationally shaped).
Value BuildCatalog(const Value& universe);

// Convenience: returns `universe` extended with the catalog under the
// database name `name` (default "cat"). Fails if the name is taken.
Result<Value> WithCatalog(const Value& universe,
                          std::string_view name = "cat");

}  // namespace idl

#endif  // IDL_CATALOG_CATALOG_H_
