// MetUM global atmosphere model proxy (paper §V-C2).
//
// The paper benchmarks the UK Met Office Unified Model 7.8 on an N320L70
// grid (640 x 481 x 70) for 18 timesteps (2.5 simulated hours), reading a
// 1.6 GB start dump and producing no output. MetUM is closed source; the
// proxy reproduces its section structure and communication pattern:
//
//   Read_Dump — rank 0 reads the dump and scatters it (Table III I/O row);
//   ATM_STEP  — per timestep: advection halo exchanges on the 2-D lat-lon
//               processor grid, a semi-implicit Helmholtz solve (tens of
//               iterations, each a halo exchange plus small all-reduces —
//               the collective-dominated section of Table III), physics
//               columns (with extra convection work in the tropics, the
//               source of Fig 7's rank 8..23 imbalance), and a polar filter
//               (row-communicator collectives on the polar bands);
//   Diagnostics — global reductions per step.
//
// The "warmed" time (Fig 6) excludes the first two timesteps and all I/O.
//
// Execute mode runs a real advection-diffusion dynamical core on a small
// grid (1-D latitude-band decomposition) with conservation checks; model
// mode replays the full N320L70 pattern on a 2-D processor grid. The grid,
// step count and serial reference work (calibrated against Fig 6 and
// Table III) are fixed constants in metum.cpp: the paper ran one problem.
#pragma once

#include "mpi/minimpi.hpp"
#include "platform/platform.hpp"

namespace cirrus::metum {

struct Result {
  bool verified = false;
  double warmed_seconds = 0.0;  ///< the Fig 6 metric
  double tracer_total = 0.0;    ///< conserved quantity (execute mode)
};

/// Memory-bound atmosphere traits (Table III rcomp DCC/Vayu = 1.37).
plat::WorkloadTraits traits();

/// Runs the climate benchmark inside a rank fiber.
Result run(mpi::RankEnv& env);

}  // namespace cirrus::metum
