"""The CLI's exact bytes: exit code, stdout and stderr of each command form.

tests/test_cli.py parses the values; this table pins everything around them
(separators, headers, footers, trailing newlines, JSON key order), one row
per command and output format.
"""

import pytest

from telesum.cli import main

# (argv, exit code, stdout, stderr)
CASES = [
    ('poly bernoulli 4', 0,
     '-1/30 0 1 -2 1\n',
     ''),
    ('poly euler 3 --format json', 0,
     '{"coeffs": ["1/4", "0", "-3/2", "1"], "kind": "euler_poly", "params": {"k": 3}}\n',
     ''),
    ('apostol euler 2 --lambda-re 0 --lambda-im 1', 0,
     (
         '0 0 1\n'
         '1 -2 0\n'
         '2 1 -1\n'
     ),
     ''),
    ('apostol bernoulli 2 --lambda-re 0.5 --lambda-im -0.25 --digits 6 --format json', 0,
     '{"coeffs": [[-0.64, 3.52], [-3.2, 1.6]], "kind": "apostol_bernoulli_poly", "params": {"k": 2, "lambda_im": -0.25, "lambda_re": 0.5}}\n',
     ''),
    ('coeffs sec --mu 0 --order 4', 0,
     (
         '0 1\n'
         '1 0\n'
         '2 0.25\n'
         '3 0\n'
         '4 0.3125\n'
     ),
     ''),
    ('coeffs cot --mu 1.5707963 --order 3 --format json', 0,
     '{"coeffs": [-1.000000026794897, 1.0000000267948974, -1.000000053589795, 2.000000133974489], "kind": "cot_taylor", "params": {"mu": 1.5707963, "order": 3}}\n',
     ''),
    ('eval zeta --k 2', 0,
     '1/90 * pi^4 = 1.08232323371114\n',
     ''),
    ('eval zeta --k 2 --format json', 0,
     '{"approx": "1.08232323371114", "exact": {"den": 90, "num": 1, "pi_power": 4}, "kind": "zeta", "method": "closed_form", "params": {"k": 2}}\n',
     ''),
    ('eval zeta --k 2 --format latex', 0,
     '\\frac{1}{90}\\pi^{4}\n',
     ''),
    ('eval beta --k 1 --digits 8', 0,
     '1/32 * pi^3 = 0.96894615\n',
     ''),
    ('eval beta --k 1 --digits 8 --format json', 0,
     '{"approx": "0.96894615", "exact": {"den": 32, "num": 1, "pi_power": 3}, "kind": "beta", "method": "closed_form", "params": {"k": 1}}\n',
     ''),
    ('eval beta --k 1 --digits 8 --format latex', 0,
     '\\frac{1}{32}\\pi^{3}\n',
     ''),
    ('eval Z --k 1 --mu 0.7', 0,
     '0.0971468752067453\n',
     ''),
    ('eval Z --k 1 --mu 0.7 --format json', 0,
     '{"approx": "0.0971468752067453", "kind": "Z", "method": "auto", "params": {"k": 1, "mu": 0.7}}\n',
     ''),
    ('eval Z --k 1 --mu 0.7 --format latex', 0,
     '0.0971468752067453\n',
     ''),
    ('eval Z --k 3 --mu 0.7 --method taylor', 0,
     '0.0234750356603447\n',
     ''),
    ('eval Z --k 3 --mu 0.7 --method taylor --format json', 0,
     '{"approx": "0.0234750356603447", "kind": "Z", "method": "taylor", "params": {"k": 3, "mu": 0.7}}\n',
     ''),
    ('eval Z --k 3 --mu 0.7 --method taylor --format latex', 0,
     '0.0234750356603447\n',
     ''),
    ('eval Z --k 2 --mu 0.7 --method table', 0,
     '0.0842644502785671\n',
     ''),
    ('eval Z --k 2 --mu 0.7 --method table --format json', 0,
     '{"approx": "0.0842644502785671", "kind": "Z", "method": "table", "params": {"k": 2, "mu": 0.7}}\n',
     ''),
    ('eval Z --k 2 --mu 0.7 --method table --format latex', 0,
     '0.0842644502785671\n',
     ''),
    ('eval Ztilde --k 2 --mu 1.1', 0,
     '-0.746261825603105\n',
     ''),
    ('eval Ztilde --k 2 --mu 1.1 --format json', 0,
     '{"approx": "-0.746261825603105", "kind": "Ztilde", "method": "auto", "params": {"k": 2, "mu": 1.1}}\n',
     ''),
    ('eval Ztilde --k 2 --mu 1.1 --format latex', 0,
     '-0.746261825603105\n',
     ''),
    ('eval Ztilde0 --mu 1.5707963', 0,
     '-0.500000013397448\n',
     ''),
    ('eval Ztilde0 --mu 1.5707963 --format json', 0,
     '{"approx": "-0.500000013397448", "kind": "Ztilde0", "method": "closed_form", "params": {"mu": 1.5707963}}\n',
     ''),
    ('eval Ztilde0 --mu 1.5707963 --format latex', 0,
     '-0.500000013397448\n',
     ''),
    ('series zeta --s 3 --tol 1e-10', 0,
     (
         'value = 1.20205690310966\n'
         'error_bound = 5.07e-11\n'
         'terms_used = 265\n'
     ),
     ''),
    ('series beta --s 3 --tol 1e-8 --format json', 0,
     '{"error_bound": 3.6898627979899494e-09, "kind": "beta", "params": {"s": 3, "target_tol": 1e-08}, "terms_used": 70, "value": 0.9689461461554726}\n',
     ''),
    ('series Z --k 1 --mu 0.7 --terms 10000', 0,
     (
         'value = 0.0971468752067453\n'
         'error_bound = 5.52e-16\n'
         'terms_used = 20000\n'
     ),
     ''),
    ('series Z --k 3 --mu -1e-10 --terms 1000 --format json', 0,
     '{"error_bound": 1.8639791794731047e-26, "kind": "Z", "params": {"N": 1000, "k": 3, "mu": -1e-10}, "terms_used": 2000, "value": -2.604166666666667e-12}\n',
     ''),
    ('series Z --k 2 --mu 0.7 --terms 1000', 0,
     (
         'value = 0.0842644502785671\n'
         'error_bound = 6.58e-15\n'
         'terms_used = 2000\n'
     ),
     ''),
    ('series Ztilde --k 1 --mu 0.7 --terms 1000', 0,
     (
         'value = 2.12623171743356\n'
         'error_bound = 8.45e-12\n'
         'terms_used = 2001\n'
     ),
     ''),
    ('series theta2 --theta 0.25 --terms 1000', 0,
     (
         'value = 19.7392088018464\n'
         'error_bound = 3.33e-10\n'
         'terms_used = 2001\n'
     ),
     ''),
    ('series cot --theta 0.25 --terms 1000 --format json', 0,
     '{"error_bound": 8.335289623780007e-11, "kind": "cot", "params": {"N": 1000, "theta": 0.25}, "terms_used": 2001, "value": 3.1415926536728773}\n',
     ''),
    ('integrals poly-cos --k 2 --m 2', 0,
     '-3/2 * pi^-4 = -0.0153989733820265\n',
     ''),
    ('integrals poly-cos --k 2 --m 2 --format json', 0,
     '{"approx": "-0.0153989733820265", "exact": {"den": 2, "num": -3, "pi_power": -4}, "kind": "poly_cos_integral", "method": "exact_ladder", "params": {"k": 2, "m": 2}}\n',
     ''),
    ('integrals poly-sin --k 1 --m 1', 0,
     '-4 * pi^-3 = -0.129006137732798\n',
     ''),
    ('integrals poly-sin --k 1 --m 1 --format json', 0,
     '{"approx": "-0.129006137732798", "exact": {"den": 1, "num": -4, "pi_power": -3}, "kind": "poly_sin_integral", "method": "exact_ladder", "params": {"k": 1, "m": 1}}\n',
     ''),
    ('integrals poly-cos --k 2 --m 3', 0,
     '0 = 0\n',
     ''),
    ('integrals poly-cos --k 2 --m 3 --format json', 0,
     '{"approx": "0", "exact": {"den": 1, "num": 0, "pi_power": 0}, "kind": "poly_cos_integral", "method": "exact_ladder", "params": {"k": 2, "m": 3}}\n',
     ''),
    ('integrals apostol --k 2 --m 1 --mu 0.7', 0,
     '0 0.00602277780727883\n',
     ''),
    ('integrals apostol --k 2 --m 1 --mu 0.7 --format json', 0,
     '{"kind": "apostol_exp_integral", "method": "exact_ladder", "params": {"k": 2, "m": 1, "mu": 0.7}, "value": [0.0, 0.006022777807278828]}\n',
     ''),
    ('integrals zeta-odd --k 1 --tol 1e-8', 0,
     '1.20205690315959 (tol 1e-08)\n',
     ''),
    ('integrals zeta-odd --k 1 --tol 1e-8 --format json', 0,
     '{"approx": "1.20205690315959", "error_bound": "1e-08", "kind": "zeta_odd_integral", "method": "adaptive_quadrature", "params": {"k": 1, "tol": 1e-08}}\n',
     ''),
    ('integrals beta-even --k 0 --tol 1e-8', 0,
     '0.915965594177219 (tol 1e-08)\n',
     ''),
    ('integrals beta-even --k 0 --tol 1e-8 --format json', 0,
     '{"approx": "0.915965594177219", "error_bound": "1e-08", "kind": "beta_even_integral", "method": "adaptive_quadrature", "params": {"k": 0, "tol": 1e-08}}\n',
     ''),
    ('table zeta --max-k 3 --digits 6', 0,
     (
         'k=1  1/6 * pi^2  1.64493\n'
         'k=2  1/90 * pi^4  1.08232\n'
         'k=3  1/945 * pi^6  1.01734\n'
     ),
     ''),
    ('table zeta --max-k 3 --digits 6 --format json', 0,
     '{"kind": "table", "params": {"family": "zeta", "max_k": 3}, "rows": [{"approx": "1.64493", "exact": {"den": 6, "num": 1, "pi_power": 2}, "k": 1}, {"approx": "1.08232", "exact": {"den": 90, "num": 1, "pi_power": 4}, "k": 2}, {"approx": "1.01734", "exact": {"den": 945, "num": 1, "pi_power": 6}, "k": 3}]}\n',
     ''),
    ('table zeta --max-k 3 --digits 6 --format csv', 0,
     (
         'k,exact,approx\n'
         '1,1/6 * pi^2,1.64493\n'
         '2,1/90 * pi^4,1.08232\n'
         '3,1/945 * pi^6,1.01734\n'
     ),
     ''),
    ('table zeta --max-k 3 --digits 6 --format latex', 0,
     (
         '\\begin{tabular}{rll}\n'
         'k & exact & decimal \\\\\n'
         '1 & $\\frac{1}{6}\\pi^{2}$ & 1.64493 \\\\\n'
         '2 & $\\frac{1}{90}\\pi^{4}$ & 1.08232 \\\\\n'
         '3 & $\\frac{1}{945}\\pi^{6}$ & 1.01734 \\\\\n'
         '\\end{tabular}\n'
     ),
     ''),
    ('table euler --max-k 2', 0,
     (
         'k=0  1\n'
         'k=1  -1/2 1\n'
         'k=2  0 -1 1\n'
     ),
     ''),
    ('table euler --max-k 2 --format json', 0,
     '{"kind": "table", "params": {"family": "euler", "max_k": 2}, "rows": [{"coeffs": ["1"], "k": 0}, {"coeffs": ["-1/2", "1"], "k": 1}, {"coeffs": ["0", "-1", "1"], "k": 2}]}\n',
     ''),
    ('table euler --max-k 2 --format csv', 0,
     (
         'k,coeffs\n'
         '0,1\n'
         '1,-1/2 1\n'
         '2,0 -1 1\n'
     ),
     ''),
    ('table euler --max-k 2 --format latex', 0,
     (
         '\\begin{tabular}{rl}\n'
         'k & coefficients \\\\\n'
         '0 & 1 \\\\\n'
         '1 & -1/2 1 \\\\\n'
         '2 & 0 -1 1 \\\\\n'
         '\\end{tabular}\n'
     ),
     ''),
    ('table zeta --max-k 0', 0,
     '',
     ''),
    ('table zeta --max-k 0 --format json', 0,
     '{"kind": "table", "params": {"family": "zeta", "max_k": 0}, "rows": []}\n',
     ''),
    ('table zeta --max-k 0 --format csv', 0,
     'k,exact,approx\n',
     ''),
    ('table zeta --max-k 0 --format latex', 0,
     (
         '\\begin{tabular}{rll}\n'
         'k & exact & decimal \\\\\n'
         '\\end{tabular}\n'
     ),
     ''),
    ('eval zeta --k 0', 2,
     '',
     'error: zeta needs --k >= 1 (value is zeta(2k))\n'),
    ('series Z --k 70 --mu 3.14159', 1,
     '',
     'error: the terms or the tail leave the double-precision range\n'),
]


@pytest.mark.parametrize("argv, code, out, err", CASES, ids=[c[0] for c in CASES])
def test_cli_bytes(capsys, argv, code, out, err):
    assert main(argv.split()) == code
    assert capsys.readouterr() == (out, err)
