//! Mediated schemas — the heart of the virtual-integration approach
//! (paper §3.1): one schema per domain, built by hand exactly as a vertical
//! search company would.

/// One element of a mediated schema.
#[derive(Clone, Debug)]
pub(crate) struct MediatedElement {
    /// Canonical name.
    pub name: &'static str,
    /// Name variants found in the wild (the manual mapping effort the paper
    /// says does not scale — each entry here is curated labour).
    pub synonyms: &'static [&'static str],
}

/// A mediated schema for one vertical.
#[derive(Clone, Debug)]
pub(crate) struct MediatedSchema {
    /// Domain name ("usedcars", ...).
    pub domain: &'static str,
    /// Elements.
    pub elements: Vec<MediatedElement>,
    /// Domain keywords used for routing queries to this vertical.
    pub domain_keywords: &'static [&'static str],
}

impl MediatedSchema {
    /// Element by canonical name.
    #[cfg(test)]
    fn element(&self, name: &str) -> Option<&MediatedElement> {
        self.elements.iter().find(|e| e.name == name)
    }

    /// Find the element a raw input name/label maps to, if any.
    pub(crate) fn match_input(&self, input_name: &str, label: &str) -> Option<&MediatedElement> {
        let hay = format!("{input_name} {label}").to_ascii_lowercase();
        self.elements.iter().find(|e| {
            std::iter::once(e.name)
                .chain(e.synonyms.iter().copied())
                .any(|syn| hay.contains(syn))
        })
    }
}

/// The hand-built mediated schemas for the verticals we target.
pub(crate) fn builtin_schemas() -> Vec<MediatedSchema> {
    vec![
        MediatedSchema {
            domain: "usedcars",
            elements: vec![
                MediatedElement {
                    name: "make",
                    synonyms: &["manufacturer", "brand"],
                },
                MediatedElement {
                    name: "model",
                    synonyms: &[],
                },
                MediatedElement {
                    name: "price",
                    synonyms: &["cost", "asking"],
                },
                MediatedElement {
                    name: "year",
                    synonyms: &["model year"],
                },
                MediatedElement {
                    name: "zip",
                    synonyms: &["zipcode", "zip_code", "postalcode", "postal"],
                },
                MediatedElement {
                    name: "city",
                    synonyms: &["town", "location"],
                },
                MediatedElement {
                    name: "keywords",
                    synonyms: &["q", "query", "search", "terms"],
                },
            ],
            domain_keywords: &["used", "car", "cars", "auto", "civic", "sedan", "mileage"],
        },
        MediatedSchema {
            domain: "realestate",
            elements: vec![
                MediatedElement {
                    name: "type",
                    synonyms: &["property type"],
                },
                MediatedElement {
                    name: "bedrooms",
                    synonyms: &["beds"],
                },
                MediatedElement {
                    name: "price",
                    synonyms: &["cost"],
                },
                MediatedElement {
                    name: "zip",
                    synonyms: &["zipcode", "zip_code", "postalcode"],
                },
                MediatedElement {
                    name: "city",
                    synonyms: &["town", "location"],
                },
                MediatedElement {
                    name: "keywords",
                    synonyms: &["q", "query", "search", "terms"],
                },
            ],
            domain_keywords: &["house", "condo", "apartment", "rent", "bedroom", "listing"],
        },
        MediatedSchema {
            domain: "jobs",
            elements: vec![
                MediatedElement {
                    name: "category",
                    synonyms: &["job category"],
                },
                MediatedElement {
                    name: "salary",
                    synonyms: &["pay", "compensation"],
                },
                MediatedElement {
                    name: "city",
                    synonyms: &["town", "location"],
                },
                MediatedElement {
                    name: "keywords",
                    synonyms: &["q", "query", "search", "terms"],
                },
            ],
            domain_keywords: &[
                "job", "jobs", "position", "hiring", "engineer", "nurse", "salary",
            ],
        },
        MediatedSchema {
            domain: "restaurants",
            elements: vec![
                MediatedElement {
                    name: "cuisine",
                    synonyms: &["food type"],
                },
                MediatedElement {
                    name: "zip",
                    synonyms: &["zipcode", "zip_code", "postalcode"],
                },
                MediatedElement {
                    name: "keywords",
                    synonyms: &["q", "query", "search", "terms"],
                },
            ],
            domain_keywords: &[
                "restaurant",
                "cuisine",
                "menu",
                "thai",
                "italian",
                "bistro",
                "cafe",
            ],
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_schemas_have_keywords_element() {
        for s in builtin_schemas() {
            assert!(
                s.element("keywords").is_some(),
                "{} lacks keywords",
                s.domain
            );
            assert!(!s.domain_keywords.is_empty());
        }
    }

    #[test]
    fn match_input_via_synonyms() {
        let schemas = builtin_schemas();
        let cars = &schemas[0];
        assert_eq!(cars.match_input("zipcode", "").unwrap().name, "zip");
        assert_eq!(
            cars.match_input("min_price", "min price:").unwrap().name,
            "price"
        );
        assert_eq!(cars.match_input("q", "keywords:").unwrap().name, "keywords");
        assert!(cars.match_input("xyzzy", "").is_none());
    }
}
