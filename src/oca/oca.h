// The oca:: public facade: one header, the whole supported surface.
//
// Downstream consumers — in-tree examples, find_package(oca) users, the
// cmake/smoke consumer test — include "oca/oca.h" and nothing else.
// Everything re-exported here is API the library promises to keep
// working across versions:
//
//   building graphs      Graph, GraphBuilder, OpenMmapGraph
//   running the paper    RunOca (OcaOptions, incl. the engine hook)
//   the hierarchy        BuildRecursiveHierarchy: the per-community
//                        tree, the one hierarchy the store serves
//   persisting results   WriteCommunityStore / WriteCoverFile and the
//                        graph writers
//   serving queries      CommunityStore (mmap snapshot reads),
//                        StoreServer / StoreClient (the wire protocol)
//   error discipline     Status / Result<T>
//
// Headers below this facade (core/local_search.h, spectral/*, ...) are
// implementation surface: stable enough for benchmarks and tests, but
// not part of the supported API and free to churn between PRs. The
// installed tree places src/ headers under include/oca, so this file is
// reachable as <oca/oca.h> both in-tree and installed.

#ifndef OCA_OCA_OCA_H_
#define OCA_OCA_OCA_H_

#include "core/community_store.h"
#include "core/cover.h"
#include "core/oca.h"
#include "core/recursive_hierarchy.h"
#include "graph/graph.h"
#include "graph/graph_builder.h"
#include "graph/mmap_graph.h"
#include "io/community_serialize.h"
#include "io/cover_io.h"
#include "io/graph_serialize.h"
#include "server/store_client.h"
#include "server/store_protocol.h"
#include "server/store_server.h"
#include "util/result.h"
#include "util/status.h"

#endif  // OCA_OCA_OCA_H_
