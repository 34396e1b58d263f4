// Umbrella header: the public API of the IDL library.
//
// IDL ("Interoperable Database Language") reproduces the language of
// Krishnamurthy, Litwin & Kent, "Language Features for Interoperability of
// Databases with Schematic Discrepancies", SIGMOD 1991: higher-order queries
// over data *and* metadata, higher-order (data-dependent) view definitions,
// and update programs providing multidatabase view updatability.

#ifndef IDL_IDL_IDL_H_
#define IDL_IDL_IDL_H_

#include "catalog/catalog.h"
#include "common/metrics.h"
#include "common/result.h"
#include "common/status.h"
#include "common/trace.h"
#include "constraints/checker.h"
#include "durability/crash_point.h"
#include "durability/crc32.h"
#include "durability/snapshot.h"
#include "durability/wal.h"
#include "eval/query.h"
#include "federation/gateway.h"
#include "federation/ship.h"
#include "federation/site.h"
#include "idl/session.h"
#include "object/builder.h"
#include "object/value.h"
#include "object/value_io.h"
#include "relational/adapter.h"
#include "relational/algebra.h"
#include "relational/database.h"
#include "relational/fo_engine.h"
#include "relational/msql.h"
#include "relational/pivot.h"
#include "server/script_driver.h"
#include "server/server.h"
#include "syntax/analysis.h"
#include "syntax/parser.h"
#include "syntax/printer.h"
#include "workload/discrepancy_gen.h"
#include "workload/paper_universe.h"
#include "workload/stock_gen.h"

#endif  // IDL_IDL_IDL_H_
