// Conductance lookup table G = F(I, S) (paper Sec. IV-A).
//
// The paper evaluates the application-level behavior of the MCAM by
// building a 2D conductance table over (input state, stored state) pairs
// from circuit simulation, then summing table entries per row. This module
// reproduces that flow: `ConductanceLut::nominal` characterizes an ideal
// cell per stored state, `ConductanceLut::programmed` characterizes
// pulse-programmed cells (optionally Monte-Carlo sampled, which yields the
// Fig. 4(b) scatter), and `DistanceProfile` extracts the conductance-vs-
// distance curve and its derivative (Fig. 4(a)/(d)).
#pragma once

#include "cam/cell.hpp"

#include <cstddef>
#include <vector>

namespace mcam::cam {

/// Dense 2^B x 2^B conductance table indexed by (input, stored).
class ConductanceLut {
 public:
  /// Builds the table from ideal cells (exact Vth targets).
  [[nodiscard]] static ConductanceLut nominal(
      const fefet::LevelMap& map, const fefet::ChannelParams& channel = fefet::ChannelParams{});

  /// Builds the table from pulse-programmed cells. With kMonteCarlo, each
  /// stored state is an individual device pair drawn from `seed`.
  [[nodiscard]] static ConductanceLut programmed(const fefet::LevelMap& map,
                                                 const fefet::PulseProgrammer& programmer,
                                                 const fefet::PreisachParams& preisach,
                                                 const fefet::ChannelParams& channel,
                                                 fefet::SamplingMode mode, std::uint64_t seed);

  /// Builds a table directly from `values` (row-major [input][stored]);
  /// used to wrap externally measured conductances (Fig. 9 instrument).
  /// Throws std::invalid_argument for zero states, a size other than
  /// num_states^2, or an entry that is NaN, infinite or negative (the
  /// message names its (input, stored) pair).
  [[nodiscard]] static ConductanceLut from_values(std::size_t num_states,
                                                  std::vector<double> values);

  /// Conductance [S] for input state `input` against stored state `stored`.
  [[nodiscard]] double g(std::size_t input, std::size_t stored) const;

  /// Number of states per axis.
  [[nodiscard]] std::size_t num_states() const noexcept { return n_; }

  /// Returns a copy whose entries are re-sampled with per-entry Gaussian
  /// Vth noise of `sigma_v` volts applied to both FeFETs of a fresh ideal
  /// cell; models one programmed array instance under variation.
  [[nodiscard]] ConductanceLut with_vth_noise(const fefet::LevelMap& map,
                                              const fefet::ChannelParams& channel,
                                              double sigma_v, Rng& rng) const;

  /// Mean conductance at each level distance d = |I - S| (averaged over all
  /// pairs at that distance). Index 0 = match.
  [[nodiscard]] std::vector<double> mean_g_by_distance() const;

 private:
  ConductanceLut(std::size_t n) : n_(n), g_(n * n, 0.0) {}

  std::size_t n_;
  std::vector<double> g_;
};

/// Conductance-vs-distance characterization of a single stored state
/// (paper Fig. 4(a): state S1; Fig. 4(d): its discrete derivative).
struct DistanceProfile {
  std::vector<double> distance;      ///< 0, 1, 2, ...
  std::vector<double> conductance;   ///< G at each distance [S].
  std::vector<double> derivative;    ///< dG/dd (forward difference) [S].
};

/// Extracts the profile of `stored` from `lut` by sweeping the input state.
[[nodiscard]] DistanceProfile distance_profile(const ConductanceLut& lut, std::size_t stored);

/// Scatter sample of the full distance function (Fig. 4(b)): conductance of
/// `trials` Monte-Carlo-programmed cells for every (I, S) pair, tagged by
/// distance.
struct DistanceScatter {
  std::vector<double> distance;
  std::vector<double> conductance;
};
[[nodiscard]] DistanceScatter distance_scatter(const fefet::LevelMap& map,
                                               const fefet::PulseProgrammer& programmer,
                                               const fefet::PreisachParams& preisach,
                                               const fefet::ChannelParams& channel,
                                               std::size_t trials, std::uint64_t seed);

}  // namespace mcam::cam
