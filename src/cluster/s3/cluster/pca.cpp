#include "s3/cluster/pca.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "s3/util/error.h"

namespace s3::cluster {

EigenResult symmetric_eigen(const std::vector<double>& matrix,
                            std::size_t dim, std::size_t max_sweeps) {
  S3_REQUIRE(matrix.size() == dim * dim, "symmetric_eigen: size mismatch");
  std::vector<double> a = matrix;  // working copy, mutated in place
  std::vector<double> v(dim * dim, 0.0);
  for (std::size_t i = 0; i < dim; ++i) v[i * dim + i] = 1.0;

  auto off_diagonal_norm = [&]() {
    double s = 0.0;
    for (std::size_t i = 0; i < dim; ++i) {
      for (std::size_t j = i + 1; j < dim; ++j) {
        s += a[i * dim + j] * a[i * dim + j];
      }
    }
    return std::sqrt(s);
  };

  for (std::size_t sweep = 0; sweep < max_sweeps; ++sweep) {
    if (off_diagonal_norm() < 1e-13) break;
    for (std::size_t p = 0; p < dim; ++p) {
      for (std::size_t q = p + 1; q < dim; ++q) {
        const double apq = a[p * dim + q];
        if (std::abs(apq) < 1e-15) continue;
        const double app = a[p * dim + p];
        const double aqq = a[q * dim + q];
        const double theta = 0.5 * (aqq - app) / apq;
        const double t = (theta >= 0.0 ? 1.0 : -1.0) /
                         (std::abs(theta) + std::sqrt(theta * theta + 1.0));
        const double c = 1.0 / std::sqrt(t * t + 1.0);
        const double s = t * c;

        for (std::size_t k = 0; k < dim; ++k) {
          const double akp = a[k * dim + p];
          const double akq = a[k * dim + q];
          a[k * dim + p] = c * akp - s * akq;
          a[k * dim + q] = s * akp + c * akq;
        }
        for (std::size_t k = 0; k < dim; ++k) {
          const double apk = a[p * dim + k];
          const double aqk = a[q * dim + k];
          a[p * dim + k] = c * apk - s * aqk;
          a[q * dim + k] = s * apk + c * aqk;
        }
        for (std::size_t k = 0; k < dim; ++k) {
          const double vkp = v[k * dim + p];
          const double vkq = v[k * dim + q];
          v[k * dim + p] = c * vkp - s * vkq;
          v[k * dim + q] = s * vkp + c * vkq;
        }
      }
    }
  }

  // Sort by eigenvalue, descending; eigenvector i is column i of v.
  std::vector<std::size_t> order(dim);
  std::iota(order.begin(), order.end(), std::size_t{0});
  // s3lint: allow(det-sort-ties): equal eigenvalues order the components; ties
  // reach output; see CHANGES.md, FOUND det-sort-ties
  std::sort(order.begin(), order.end(), [&](std::size_t x, std::size_t y) {
    return a[x * dim + x] > a[y * dim + y];
  });

  EigenResult result;
  result.eigenvalues.resize(dim);
  result.eigenvectors.resize(dim * dim);
  for (std::size_t r = 0; r < dim; ++r) {
    const std::size_t col = order[r];
    result.eigenvalues[r] = a[col * dim + col];
    for (std::size_t k = 0; k < dim; ++k) {
      result.eigenvectors[r * dim + k] = v[k * dim + col];
    }
  }
  return result;
}

PcaBasis pca(const std::vector<double>& data, std::size_t n,
             std::size_t dim) {
  S3_REQUIRE(n >= 2, "pca: need at least two points");
  S3_REQUIRE(data.size() == n * dim, "pca: size mismatch");

  PcaBasis basis;
  basis.mean.assign(dim, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t d = 0; d < dim; ++d) basis.mean[d] += data[i * dim + d];
  }
  for (double& m : basis.mean) m /= static_cast<double>(n);

  std::vector<double> cov(dim * dim, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t d1 = 0; d1 < dim; ++d1) {
      const double x1 = data[i * dim + d1] - basis.mean[d1];
      for (std::size_t d2 = d1; d2 < dim; ++d2) {
        cov[d1 * dim + d2] += x1 * (data[i * dim + d2] - basis.mean[d2]);
      }
    }
  }
  for (std::size_t d1 = 0; d1 < dim; ++d1) {
    for (std::size_t d2 = d1; d2 < dim; ++d2) {
      cov[d1 * dim + d2] /= static_cast<double>(n - 1);
      cov[d2 * dim + d1] = cov[d1 * dim + d2];
    }
  }

  EigenResult eig = symmetric_eigen(cov, dim);
  basis.components = std::move(eig.eigenvectors);
  basis.variances = std::move(eig.eigenvalues);
  return basis;
}

void to_pca_frame(const PcaBasis& basis, const double* x, double* y) {
  const std::size_t dim = basis.mean.size();
  for (std::size_t r = 0; r < dim; ++r) {
    double s = 0.0;
    for (std::size_t d = 0; d < dim; ++d) {
      s += basis.components[r * dim + d] * (x[d] - basis.mean[d]);
    }
    y[r] = s;
  }
}

void from_pca_frame(const PcaBasis& basis, const double* y, double* x) {
  const std::size_t dim = basis.mean.size();
  for (std::size_t d = 0; d < dim; ++d) {
    double s = basis.mean[d];
    for (std::size_t r = 0; r < dim; ++r) {
      s += basis.components[r * dim + d] * y[r];
    }
    x[d] = s;
  }
}

}  // namespace s3::cluster
