#include "cam/lut.hpp"

#include <cmath>
#include <stdexcept>
#include <string>

namespace mcam::cam {

ConductanceLut ConductanceLut::nominal(const fefet::LevelMap& map,
                                       const fefet::ChannelParams& channel) {
  ConductanceLut lut{map.num_states()};
  for (std::size_t stored = 0; stored < lut.n_; ++stored) {
    const McamCell cell{map, stored, channel};
    for (std::size_t input = 0; input < lut.n_; ++input) {
      lut.g_[input * lut.n_ + stored] = cell.conductance_for_input(input);
    }
  }
  return lut;
}

ConductanceLut ConductanceLut::programmed(const fefet::LevelMap& map,
                                          const fefet::PulseProgrammer& programmer,
                                          const fefet::PreisachParams& preisach,
                                          const fefet::ChannelParams& channel,
                                          fefet::SamplingMode mode, std::uint64_t seed) {
  ConductanceLut lut{map.num_states()};
  Rng master{seed};
  for (std::size_t stored = 0; stored < lut.n_; ++stored) {
    const McamCell cell{map, stored, programmer, preisach, channel, mode,
                        master.fork(stored)};
    for (std::size_t input = 0; input < lut.n_; ++input) {
      lut.g_[input * lut.n_ + stored] = cell.conductance_for_input(input);
    }
  }
  return lut;
}

ConductanceLut ConductanceLut::from_values(std::size_t num_states,
                                           std::vector<double> values) {
  if (num_states == 0) throw std::invalid_argument{"ConductanceLut::from_values: no states"};
  if (values.size() != num_states * num_states) {
    throw std::invalid_argument{"ConductanceLut::from_values: size mismatch"};
  }
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (!std::isfinite(values[i]) || values[i] < 0.0) {
      throw std::invalid_argument{"ConductanceLut::from_values: entry (input " +
                                  std::to_string(i / num_states) + ", stored " +
                                  std::to_string(i % num_states) +
                                  ") is not a finite non-negative conductance"};
    }
  }
  ConductanceLut lut{num_states};
  lut.g_ = std::move(values);
  return lut;
}

double ConductanceLut::g(std::size_t input, std::size_t stored) const {
  if (input >= n_ || stored >= n_) throw std::out_of_range{"ConductanceLut::g"};
  return g_[input * n_ + stored];
}

ConductanceLut ConductanceLut::with_vth_noise(const fefet::LevelMap& map,
                                              const fefet::ChannelParams& channel,
                                              double sigma_v, Rng& rng) const {
  ConductanceLut lut{n_};
  for (std::size_t stored = 0; stored < n_; ++stored) {
    McamCell cell{map, stored, channel};
    cell.inject_vth_noise(sigma_v, rng);
    for (std::size_t input = 0; input < n_; ++input) {
      lut.g_[input * n_ + stored] = cell.conductance_for_input(input);
    }
  }
  return lut;
}

std::vector<double> ConductanceLut::mean_g_by_distance() const {
  std::vector<double> sums(n_, 0.0);
  std::vector<std::size_t> counts(n_, 0);
  for (std::size_t input = 0; input < n_; ++input) {
    for (std::size_t stored = 0; stored < n_; ++stored) {
      const std::size_t d = input > stored ? input - stored : stored - input;
      sums[d] += g(input, stored);
      ++counts[d];
    }
  }
  for (std::size_t d = 0; d < n_; ++d) {
    if (counts[d] > 0) sums[d] /= static_cast<double>(counts[d]);
  }
  return sums;
}

DistanceProfile distance_profile(const ConductanceLut& lut, std::size_t stored) {
  if (stored >= lut.num_states()) throw std::out_of_range{"distance_profile: stored"};
  DistanceProfile profile;
  // Sweep inputs away from `stored` in the direction with the most room,
  // mirroring the paper's S1 sweep (inputs S1..S8 against stored S1).
  const bool ascending = stored < lut.num_states() / 2;
  const std::size_t max_d =
      ascending ? lut.num_states() - 1 - stored : stored;
  for (std::size_t d = 0; d <= max_d; ++d) {
    const std::size_t input = ascending ? stored + d : stored - d;
    profile.distance.push_back(static_cast<double>(d));
    profile.conductance.push_back(lut.g(input, stored));
  }
  for (std::size_t d = 0; d + 1 < profile.conductance.size(); ++d) {
    profile.derivative.push_back(profile.conductance[d + 1] - profile.conductance[d]);
  }
  return profile;
}

DistanceScatter distance_scatter(const fefet::LevelMap& map,
                                 const fefet::PulseProgrammer& programmer,
                                 const fefet::PreisachParams& preisach,
                                 const fefet::ChannelParams& channel, std::size_t trials,
                                 std::uint64_t seed) {
  DistanceScatter scatter;
  Rng master{seed};
  const std::size_t n = map.num_states();
  scatter.distance.reserve(trials * n * n);
  scatter.conductance.reserve(trials * n * n);
  for (std::size_t trial = 0; trial < trials; ++trial) {
    for (std::size_t stored = 0; stored < n; ++stored) {
      const McamCell cell{map,     stored,
                          programmer, preisach,
                          channel, fefet::SamplingMode::kMonteCarlo,
                          master.fork(trial * n + stored)};
      for (std::size_t input = 0; input < n; ++input) {
        const std::size_t d = input > stored ? input - stored : stored - input;
        scatter.distance.push_back(static_cast<double>(d));
        scatter.conductance.push_back(cell.conductance_for_input(input));
      }
    }
  }
  return scatter;
}

}  // namespace mcam::cam
