// Umbrella header: the full public API of the communication-optimal MTTKRP
// library. Include this for everything, or the individual module headers
// for faster builds:
//
//   src/tensor/*      storage backends (dense, sparse COO, CSF), matrices,
//                     matricization, Khatri-Rao
//   src/mttkrp/*      sequential MTTKRP algorithms (dense + sparse kernels),
//                     storage dispatch layer, dimension tree
//   src/bounds/*      communication lower bounds, HBL/LP machinery,
//                     Theorem 6.1 optimality checkers
//   src/memsim/*      two-level memory (I/O) model simulator + traces
//   src/parsim/*      distributed-machine simulator, collectives,
//                     Algorithms 3 and 4, all-modes variant
//   src/costmodel/*   Eq. (14)/(18) grid optimization, CARMA model, Fig. 4
//   src/planner/*     autotuning planner: exact communication predictor,
//                     grid/scheme/backend search, memoized plan cache
//   src/sketch/*      randomized sketched backend: leverage scores, exact
//                     KRP sampling, sampled MTTKRP, sketched Gram solves
//   src/cp/*          CP-ALS (sequential + simulated-parallel), CP-gradient;
//                     storage-polymorphic via src/mttkrp/dispatch.hpp
//   src/obs/*         observability: span tracer + Chrome-trace export,
//                     process-wide metrics registry, plan-vs-actual drift
//   src/io/*          binary tensor/matrix/model files, FROSTT .tns COO
#pragma once

#include "src/bounds/hbl.hpp"
#include "src/bounds/optimality.hpp"
#include "src/bounds/parallel_bounds.hpp"
#include "src/bounds/sequential_bounds.hpp"
#include "src/bounds/simplex.hpp"
#include "src/costmodel/carma.hpp"
#include "src/costmodel/grid_search.hpp"
#include "src/costmodel/model.hpp"
#include "src/cp/cp_als.hpp"
#include "src/cp/cp_gradient.hpp"
#include "src/cp/par_cp_als.hpp"
#include "src/cp/par_cp_gradient.hpp"
#include "src/cp/tucker.hpp"
#include "src/io/frostt_presets.hpp"
#include "src/io/tensor_io.hpp"
#include "src/memsim/memory_model.hpp"
#include "src/memsim/traced_mttkrp.hpp"
#include "src/mttkrp/blocked_rect.hpp"
#include "src/mttkrp/dim_tree.hpp"
#include "src/mttkrp/dispatch.hpp"
#include "src/mttkrp/mttkrp.hpp"
#include "src/mttkrp/partial.hpp"
#include "src/mttkrp/sparse_kernels.hpp"
#include "src/mttkrp/thread_arena.hpp"
#include "src/obs/drift.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"
#include "src/parsim/distribution.hpp"
#include "src/parsim/grid.hpp"
#include "src/parsim/machine.hpp"
#include "src/parsim/par_mttkrp.hpp"
#include "src/parsim/par_multi_mttkrp.hpp"
#include "src/parsim/phase_plan.hpp"
#include "src/parsim/schedule.hpp"
#include "src/parsim/transport/counting_transport.hpp"
#include "src/parsim/transport/thread_transport.hpp"
#include "src/parsim/transport/transport.hpp"
#include "src/planner/calibrate.hpp"
#include "src/planner/plan_cache.hpp"
#include "src/planner/planner.hpp"
#include "src/planner/predict.hpp"
#include "src/serve/server.hpp"
#include "src/serve/tensor_registry.hpp"
#include "src/sketch/krp_sample.hpp"
#include "src/sketch/leverage.hpp"
#include "src/sketch/sampled_mttkrp.hpp"
#include "src/sketch/sketched_solve.hpp"
#include "src/support/check.hpp"
#include "src/support/index.hpp"
#include "src/support/json.hpp"
#include "src/support/math_util.hpp"
#include "src/support/rng.hpp"
#include "src/tensor/block.hpp"
#include "src/tensor/csf.hpp"
#include "src/tensor/csf_set.hpp"
#include "src/tensor/dense_tensor.hpp"
#include "src/tensor/eigen_sym.hpp"
#include "src/tensor/khatri_rao.hpp"
#include "src/tensor/matricize.hpp"
#include "src/tensor/matrix.hpp"
#include "src/tensor/sparse_tensor.hpp"
#include "src/tensor/ttm.hpp"
