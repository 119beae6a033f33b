// Chaste cardiac-simulation proxy (paper §V-C1).
//
// The paper's benchmark is Chaste 2.1 solving the electrical activity of a
// high-resolution rabbit heart (~4 M nodes / 24 M elements) for 250 timesteps
// with a conjugate-gradient linear solver. Chaste itself is a large C++
// framework; what the paper measures is the behaviour of its sections:
//
//   InputMesh — parallel read + partition of a 1.4 GB mesh (mostly
//               replicated work: 1.25x speedup from 8 to 64 cores);
//   Ode       — per-cell membrane-model ODEs (embarrassingly parallel);
//   Assembly  — FEM right-hand-side assembly (halo exchange + local work);
//   KSp       — the dominant section: a Jacobi-preconditioned CG solve per
//               timestep whose communication is "entirely 4-byte all-reduce
//               operations" (paper), hence latency/jitter bound on clouds;
//   Output    — per-rank result writing (open-latency bound on Lustre).
//
// Execute mode runs a real monodomain problem (FitzHugh–Nagumo membrane
// model, semi-implicit diffusion solved with cirrus::la CG) on a downscaled
// grid, with physical verification; model mode replays the full-scale
// communication/computation pattern. The problem sizes and the serial
// reference work (calibrated against Fig 5) are fixed constants in
// chaste.cpp: the paper ran one problem.
#pragma once

#include "mpi/minimpi.hpp"
#include "platform/platform.hpp"

namespace cirrus::chaste {

struct Result {
  bool verified = false;
  double final_norm = 0.0;       ///< ||V||_2 at the end (execute mode)
  long long activated_nodes = 0; ///< cells that saw the wavefront
};

/// The workload traits used by the paper-scale runs (memory-bound FEM).
plat::WorkloadTraits traits();

/// Runs the cardiac benchmark inside a rank fiber.
Result run(mpi::RankEnv& env);

}  // namespace cirrus::chaste
