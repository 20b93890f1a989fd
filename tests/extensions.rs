//! Integration tests for the extension features beyond the paper's
//! headline pipeline: bivariate LUTs, radix integers and the energy
//! report.

use strix::tfhe::integer::RadixSpec;
use strix::tfhe::prelude::*;

#[test]
fn radix_integers_do_arithmetic_end_to_end() {
    let (mut client, server) = generate_keys(&TfheParameters::testing_fast(), 4_242);
    let spec = RadixSpec::new(1, 4);
    let a = client.encrypt_radix(9, spec).unwrap();
    let b = client.encrypt_radix(5, spec).unwrap();
    let sum = server.radix_add(&a, &b).unwrap();
    assert_eq!(client.decrypt_radix(&sum), 14);
    let eq = server.radix_eq(&sum, &client.encrypt_radix(14, spec).unwrap()).unwrap();
    assert_eq!(client.decrypt_shortint(&eq), 1);
}

#[test]
fn bivariate_lut_computes_two_input_functions() {
    let (mut client, server) = generate_keys(&TfheParameters::testing_fast(), 13_13);
    for (a, b) in [(0u64, 0u64), (1, 2), (3, 3), (2, 1)] {
        let ca = client.encrypt_shortint(a, 2).unwrap();
        let cb = client.encrypt_shortint(b, 2).unwrap();
        let out = server.apply_bivariate_lut(&ca, &cb, |x, y| (x + 2 * y) % 4).unwrap();
        assert_eq!(client.decrypt_shortint(&out), (a + 2 * b) % 4, "f({a},{b})");
    }
}

#[test]
fn energy_report_is_exposed_at_the_top_level() {
    use strix::core::{StrixConfig, StrixSimulator};
    let sim = StrixSimulator::new(StrixConfig::paper_default(), TfheParameters::set_i()).unwrap();
    let e = sim.energy_report();
    assert!(e.pbs_per_joule > 100.0);
    assert!(e.power_w > 50.0 && e.power_w < 100.0);
}
